package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"pdce"
	"pdce/internal/progen"
	"pdce/internal/server"
)

// TestMemoKeyProperty: the request memo never changes a key or a served
// byte. Over TestCacheKeyProperty's 200 generated programs, each body
// is sent twice under the plain query and under mode, max_rounds,
// telemetry, explain, trace, lang and name variants, and every answer's
// key must equal the key of the request's own parse; the repeat must be
// a byte-identical hit. Each formatting perturbation of a body has new
// bytes, so it misses the memo, and must still hit L1 under the
// canonical key. A WHILE program is sent under two names. A body that
// does not parse (lang=while on flow-graph text, or plain garbage)
// answers 400 and counts a parse failure every time, and the memo holds
// nothing for it.
func TestMemoKeyProperty(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	failures := int64(0)
	// send posts one request and checks its answer against the slow
	// path's key; it returns the cache header and body of a 200.
	send := func(t *testing.T, query, src string) (string, []byte) {
		t.Helper()
		rec := serveRaw(h, "/optimize", query, src)
		want, perr := server.RequestKey(query, src)
		if perr != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("query %q: status %d for a refused request (%v)", query, rec.Code, perr)
			}
			failures++
			return "", nil
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", query, rec.Code, rec.Body.Bytes())
		}
		var resp pdce.OptimizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Key != want {
			t.Fatalf("query %q: key %s, the request's own parse gives %s", query, resp.Key, want)
		}
		return rec.Header().Get("X-Pdced-Cache"), rec.Body.Bytes()
	}

	// trace=1 has explain=v0's options without its explain, and
	// trace=1&name=v0request spells explain=v0's explain and default
	// name run together: the memo's digest must hold every field and
	// keep them apart.
	queries := []string{"", "mode=pfe", "max_rounds=1", "telemetry=1", "explain=v0", "trace=1",
		"trace=1&name=v0request", "lang=cfg", "name=other", "lang=while"}
	for seed := 0; seed < 200; seed++ {
		src := pdce.Generate(pdce.GenParams{
			Seed:        int64(seed),
			Stmts:       10 + seed%60,
			Vars:        2 + seed%6,
			Irreducible: seed%7 == 0,
		}).Format()
		for _, q := range queries {
			_, first := send(t, q, src)
			state, again := send(t, q, src)
			if first != nil && (state != string(pdce.CacheHit) || !bytes.Equal(first, again)) {
				t.Fatalf("seed %d query %q: repeat cache %q, same bytes %v", seed, q, state, bytes.Equal(first, again))
			}
		}
		for i, reformat := range progen.Reformats(src) {
			if state, _ := send(t, "", reformat); state != string(pdce.CacheHit) {
				t.Fatalf("seed %d reformat %d: cache %q, want a hit under the canonical key", seed, i, state)
			}
		}
	}

	// A WHILE program's graph is named by the query, so the same body
	// under two names has two keys.
	for _, q := range []string{"name=a", "name=a", "name=b", "name=b"} {
		send(t, q, demoSource)
	}

	memo := s.MemoLen()
	for range 2 {
		send(t, "", "node {")
	}
	if got := s.MemoLen(); got != memo {
		t.Errorf("memo grew from %d to %d on bodies that do not parse", memo, got)
	}
	if failures < 2*200+2 {
		t.Fatalf("only %d refused requests: the parse-failure half of the property is undertested", failures)
	}
	if got := int64(s.Stats().Snapshot().ParseFailures); got != failures {
		t.Errorf("parse failures counted %d, want %d", got, failures)
	}
}

// BenchmarkWarmHit is one warm POST /optimize through Handler(): the
// body's bytes were sent before and L1 holds its result, as on
// pdcebench's serve-warm, here without the HTTP transport. It cycles
// over 16 programs of 512 statements.
func BenchmarkWarmHit(b *testing.B) {
	s, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	srcs := make([]string, 16)
	for i := range srcs {
		srcs[i] = pdce.Generate(pdce.GenParams{Seed: int64(i), Stmts: 512}).Format()
		if rec := serveRaw(h, "/optimize", "mode=pde", srcs[i]); rec.Code != http.StatusOK {
			b.Fatalf("filling: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := serveRaw(h, "/optimize", "mode=pde", srcs[i%len(srcs)])
		if state := rec.Header().Get("X-Pdced-Cache"); state != string(pdce.CacheHit) {
			b.Fatalf("request %d: cache %q, want hit", i, state)
		}
	}
}
