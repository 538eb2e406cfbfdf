package pdce_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/server"
)

// oddName and oddCFG put a quote, <>&, multibyte characters and control
// bytes into a reply's name, program and listing. json.Marshal escapes
// the quote, <>&, U+2028 and the control bytes, and writes é raw.
const (
	oddName = "n\"<>&é\x01\t\u2028"
	oddCFG  = "graph \"n\\\"<>&é\x01\t\u2028\"\n" +
		"node \"a<b>&c\" {\n  y := a+b\n  x := c\n}\n" +
		"node \"é \x7f\x02\" {\n  out(y)\n}\n" +
		"edge s \"a<b>&c\"\nedge \"a<b>&c\" \"é \x7f\x02\"\nedge \"é \x7f\x02\" e\n"
	demoWhile = "y := a+b; if * { y := c }; out(x+y)"
)

// servedReplies returns the bodies an in-process pdced answers 200 with
// for each kind of /optimize request: a miss and its hit, pfe,
// telemetry=1, trace=1, explain, a degraded result and a 512-statement
// program.
func servedReplies(tb testing.TB) [][]byte {
	tb.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	send := func(query url.Values, src string) []byte {
		req := httptest.NewRequest(http.MethodPost, "/optimize?"+query.Encode(), strings.NewReader(src))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", query.Encode(), rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	named := func(kv ...string) url.Values {
		q := url.Values{"name": {oddName}}
		for i := 0; i < len(kv); i += 2 {
			q.Set(kv[i], kv[i+1])
		}
		return q
	}
	replies := [][]byte{
		send(url.Values{}, oddCFG),
		send(url.Values{}, oddCFG), // the hit
		send(named(), demoWhile),
		send(named("mode", "pfe"), demoWhile),
		send(named("telemetry", "1"), demoWhile),
		send(named("trace", "1"), demoWhile),
		send(named("explain", "y"), demoWhile),
		send(url.Values{}, pdce.Generate(pdce.GenParams{Seed: 7, Stmts: 512}).Format()),
	}
	// A stalled solver past a 1 ms deadline answers degraded.
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			time.Sleep(3 * time.Millisecond)
		}
	})
	defer restore()
	return append(replies, send(named("deadline_ms", "1"), demoWhile+"; out(y)"))
}

// TestDecodeFastPathTakesServedBodies: the fast path decodes every body
// pdced serves, to the value encoding/json gives. Were it to decline
// them, every reply would pay for encoding/json again and no other
// test would notice.
func TestDecodeFastPathTakesServedBodies(t *testing.T) {
	var degraded, explained, traced, odd bool
	for _, body := range servedReplies(t) {
		var got, want pdce.OptimizeResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatal(err)
		}
		if !pdce.DecodeOptimizeFast(body, &got) {
			t.Errorf("fast path declined a served body: %.300q", body)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fast path decoded\n%+v\nencoding/json decoded\n%+v", got, want)
		}
		degraded = degraded || want.Degraded && want.Error != "" && want.ErrorKind != ""
		explained = explained || want.Explain != ""
		traced = traced || want.Stats.Telemetry != nil && len(want.Stats.Telemetry.Events) > 0
		odd = odd || want.Name == oddName && strings.Contains(want.Listing, "\x7f\x02")
	}
	if !degraded || !explained || !traced || !odd {
		t.Errorf("replies cover degraded %v, explain %v, trace %v, odd names and labels %v: want all",
			degraded, explained, traced, odd)
	}
}

// FuzzDecodeOptimizeResponse holds the reply decoder to its contract:
// on any bytes it fails exactly when encoding/json's streaming decoder
// fails, and otherwise decodes the same value, into a zero response
// and into one whose fields are set already.
func FuzzDecodeOptimizeResponse(f *testing.F) {
	replies := servedReplies(f)
	for _, body := range replies {
		if len(body) < 8<<10 { // a 44 KB seed slows every mutation down
			f.Add(body)
		}
	}
	base := string(replies[2])
	for _, s := range []string{
		// Escapes encoding/json reads and json.Marshal does not all
		// write: U+2028, <, \/, a lone surrogate and surrogate pairs.
		strings.Replace(base, `"name":"`, `"name":"\u2028\u003c\/\ud83d\ude00`, 1),
		strings.Replace(base, `"name":"`, `"name":"\ud800`, 1),
		strings.Replace(base, `"name":"`, `"name":"\udbff\udfff\u00e9`, 1),
		// Invalid UTF-8 and a raw control byte inside a string.
		strings.Replace(base, `"name":"`, "\"name\":\"\xff\xc3(", 1),
		strings.Replace(base, `"name":"`, "\"name\":\"\x01", 1),
		// Reordered, duplicated, unknown and case-folded keys.
		strings.Replace(base, `{"name":`, `{"key":"k0","name":`, 1),
		strings.Replace(base, `,"stats":`, `,"name":"again","stats":`, 1),
		strings.Replace(base, `,"stats":`, `,"extra":[1,{"a":"}"}],"stats":`, 1),
		strings.Replace(base, `{"name":`, `{"NAME":`, 1),
		// Whitespace, null, a wrong type, a false flag, trailing bytes
		// and a cut body.
		strings.Replace(base, `,"key":`, ` , "key" : `, 1),
		strings.Replace(base, `"mode":"pde"`, `"mode":null`, 1),
		strings.Replace(base, `"mode":"pde"`, `"mode":7`, 1),
		strings.Replace(base, `,"stats":{`, `,"stats":{"rounds":"x",`, 1),
		strings.TrimSuffix(base, "}") + `,"degraded":false}`,
		base + `{"trailing":`,
		base[:len(base)/2],
		`{"name":"p","key":"k","mode":"pde","program":"","listing":"","stats":{}}`,
		`{}`, `null`, ``, ` {"name":"p"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// checkDecode fails t unless the decoder and encoding/json's streaming
// decoder both fail on b or both decode the same value, into a zero
// response and into one whose fields are set already.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	prefilled := func() pdce.OptimizeResponse {
		return pdce.OptimizeResponse{Name: "old", Error: "old", Explain: "old", Degraded: true,
			Stats: pdce.Stats{Rounds: 9, Telemetry: &pdce.Telemetry{Events: []pdce.TraceEvent{{Var: "old"}}}}}
	}
	for _, start := range []func() pdce.OptimizeResponse{
		func() pdce.OptimizeResponse { return pdce.OptimizeResponse{} }, prefilled,
	} {
		got, want := start(), start()
		gerr := pdce.DecodeOptimizeResponse(b, &got)
		werr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v, on %.300q", gerr, werr, b)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("on %.300q the decoder gave\n%+v\nencoding/json gave\n%+v", b, got, want)
		}
	}
}

// TestDecodeDeepStats: encoding/json refuses nesting past 10,000 levels
// counted from the top of the body. A stats object at that limit is
// one level shallower on its own, so json.Unmarshal alone would take
// it; the decoder must refuse it too.
func TestDecodeDeepStats(t *testing.T) {
	for _, n := range []int{9998, 9999} { // the last depth encoding/json takes, and one more
		b := []byte(`{"name":"p","key":"k","mode":"pde","program":"","listing":"","stats":{"x":` +
			strings.Repeat("[", n) + strings.Repeat("]", n) + `}}`)
		checkDecode(t, b)
	}
}
