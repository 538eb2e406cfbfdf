package server

import (
	"encoding/json"
	"testing"

	"pdce"
)

// storedResult returns the body a replica stores for a small program,
// with the key it is stored under.
func storedResult(t testing.TB) (key string, body []byte) {
	p, err := pdce.ParseSource("demo", "y := a + b\nif * {\n    y := c\n}\nout(x + y)\n")
	if err != nil {
		t.Fatal(err)
	}
	o := pdce.Options{Mode: pdce.Dead}
	opt, st, err := p.Optimize(o)
	if err != nil {
		t.Fatal(err)
	}
	key = p.CacheKey(o)
	body, err = json.Marshal((&Server{}).buildResponse("demo", key, o, opt, st, ""))
	if err != nil {
		t.Fatal(err)
	}
	return key, body
}

func TestAdmitResult(t *testing.T) {
	key, body := storedResult(t)
	if !admitResult(key, body) {
		t.Fatal("a replica's own result was refused")
	}
	var resp pdce.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Program = "garbage"
	garbled, _ := json.Marshal(resp)
	for name, c := range map[string]struct {
		key  string
		body []byte
	}{
		"other key":        {key[1:] + "0", body},
		"garbled program":  {key, garbled},
		"foreign body":     {key, []byte(`{"key":"wrong","program":"garbage"}`)},
		"not json":         {key, []byte("persisted")},
		"empty":            {key, nil},
		"truncated result": {key, body[:len(body)/2]},
	} {
		if admitResult(c.key, c.body) {
			t.Errorf("%s: admitted", name)
		}
	}
}

// FuzzAdmitStored feeds admitResult arbitrary keys and bodies. A body
// it admits must decode as a pdce.OptimizeResponse whose key is the one
// looked up and whose program ParseCFG accepts.
func FuzzAdmitStored(f *testing.F) {
	key, body := storedResult(f)
	f.Add(key, body)
	f.Add(key, body[:len(body)/2])
	f.Add("wrong", body)
	f.Add(key, []byte(`{"key":"wrong","program":"garbage"}`))
	f.Add("k", []byte(`{"key":"k","program":"graph \"g\"\nnode s {\n}\nedge s -> s\n"}`))
	f.Fuzz(func(t *testing.T, key string, body []byte) {
		if !admitResult(key, body) {
			return
		}
		var resp pdce.OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("admitted a body that does not decode: %v", err)
		}
		if resp.Key != key {
			t.Fatalf("admitted key %q for lookup %q", resp.Key, key)
		}
		if _, err := pdce.ParseCFG(resp.Program); err != nil {
			t.Fatalf("admitted a program ParseCFG refuses: %v", err)
		}
	})
}
