package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pdce"
	"pdce/internal/cfg"
	"pdce/internal/faultinject"
)

// TestDetect checks that -lang auto parses each source exactly as the
// language it names does when forced: same program, or same error.
func TestDetect(t *testing.T) {
	oldLang := *lang
	defer func() { *lang = oldLang }()

	outcome := func(l, src string) string {
		*lang = l
		p, err := parse(src, "t")
		if err != nil {
			return "error: " + err.Error()
		}
		return p.String()
	}
	cases := []struct{ src, want string }{
		{"graph \"g\"\nnode 1 {}\n", "cfg"},
		{"node 1 { x := 1 }", "cfg"},
		{"edge s e", "cfg"},
		{"// comment\n# another\nnode 1 {}", "cfg"},
		{"x := a + b\nout(x)", "while"},
		{"if * { out(1) }", "while"},
		{"", "while"},
		{"// only comments", "while"},
		// A WHILE program whose first word merely *starts* with a
		// keyword is not the CFG format.
		{"nodes := 1\nout(nodes)", "while"},
		{"edges := 2\nout(edges)", "while"},
	}
	for _, c := range cases {
		if got, want := outcome("auto", c.src), outcome(c.want, c.src); got != want {
			t.Errorf("-lang auto on %q:\n%s\nwant, as -lang %s:\n%s", c.src, got, c.want, want)
		}
	}
}

func withMode(t *testing.T, m string, f func()) {
	t.Helper()
	old := *mode
	*mode = m
	defer func() { *mode = old }()
	f()
}

func TestTransformModes(t *testing.T) {
	prog, err := pdce.ParseSource("t", `
y := a + b
if * { y := c }
out(x + y)
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"pde", "pfe", "dce", "fce", "ssadce", "dudce", "lcm", "copyprop", "none"} {
		withMode(t, m, func() {
			opt, _, err := transform(prog)
			if err != nil {
				t.Errorf("mode %s: %v", m, err)
				return
			}
			if opt == nil {
				t.Errorf("mode %s: nil result", m)
			}
		})
	}
	withMode(t, "bogus", func() {
		if _, _, err := transform(prog); err == nil {
			t.Error("unknown mode accepted")
		}
	})
}

func TestTransformPDEHasStats(t *testing.T) {
	prog, err := pdce.ParseSource("t", "y := a+b\nif * { y := c }\nout(y)")
	if err != nil {
		t.Fatal(err)
	}
	withMode(t, "pde", func() {
		_, st, err := transform(prog)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil || st.Rounds == 0 {
			t.Error("pde mode returned no stats")
		}
	})
	withMode(t, "dce", func() {
		_, st, err := transform(prog)
		if err != nil {
			t.Fatal(err)
		}
		if st != nil {
			t.Error("dce mode returned driver stats")
		}
	})
}

func TestParseLangSelection(t *testing.T) {
	oldLang := *lang
	defer func() { *lang = oldLang }()

	*lang = "auto"
	if _, err := parse("out(1)", "t"); err != nil {
		t.Errorf("auto/while: %v", err)
	}
	if _, err := parse("node 1 { out(1) }\nedge s 1\nedge 1 e", "t"); err != nil {
		t.Errorf("auto/cfg: %v", err)
	}
	*lang = "cfg"
	if _, err := parse("out(1)", "t"); err == nil {
		t.Error("cfg lang accepted while source")
	}
	*lang = "while"
	if _, err := parse("x := 1\nout(x)", "t"); err != nil {
		t.Errorf("while: %v", err)
	}
	*lang = "klingon"
	if _, err := parse("out(1)", "t"); err == nil || !strings.Contains(err.Error(), `unknown lang "klingon"`) {
		t.Errorf("bad lang error = %v", err)
	}
}

func TestExpandArgs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	b := write("b.while", "out(1)")
	a := write("a.while", "out(2)")
	write(".hidden", "ignored")
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}

	got, err := expandArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("expandArgs(dir) = %v, want [%s %s]", got, a, b)
	}

	got, err = expandArgs([]string{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != b || got[1] != a {
		t.Errorf("expandArgs(files) = %v (explicit order must be kept)", got)
	}

	if _, err := expandArgs([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Error("expandArgs accepted a missing path")
	}
	if _, err := expandArgs([]string{filepath.Join(dir, "sub")}); err == nil {
		t.Error("expandArgs accepted an empty directory")
	}
}

func TestProgBase(t *testing.T) {
	cases := []struct{ in, want string }{
		{"prog.while", "prog"},
		{"dir/sub/loop.cfg", "loop"},
		{"noext", "noext"},
		{".hidden", ".hidden"},
	}
	for _, c := range cases {
		if got := progBase(c.in); got != c.want {
			t.Errorf("progBase(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRunBatchEndToEnd drives the batch path through the real flag
// surface: two files in a directory, optimized concurrently, output in
// input order; a parse failure in one file must not stop the other and
// must surface as a non-nil error.
func TestRunBatchEndToEnd(t *testing.T) {
	dir := t.TempDir()
	good1 := filepath.Join(dir, "1good.while")
	good2 := filepath.Join(dir, "2good.while")
	bad := filepath.Join(dir, "3bad.while")
	os.WriteFile(good1, []byte("x := a+b\nif * { out(x) }\n"), 0o644)
	os.WriteFile(good2, []byte("y := 1\nout(2)\n"), 0o644)

	oldStdout := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	err := runBatch([]string{good1, good2})
	w.Close()
	os.Stdout = oldStdout
	var buf strings.Builder
	io.Copy(&buf, r)
	out := buf.String()
	if err != nil {
		t.Fatalf("batch over good files: %v", err)
	}
	i1, i2 := strings.Index(out, "==> "+good1), strings.Index(out, "==> "+good2)
	if i1 < 0 || i2 < 0 || i2 < i1 {
		t.Errorf("batch output misses per-file headers or order: %q", out)
	}

	os.WriteFile(bad, []byte("out(\n"), 0o644)
	os.Stdout, _ = os.Open(os.DevNull)
	err = runBatch([]string{good1, bad})
	os.Stdout = oldStdout
	if err == nil || !strings.Contains(err.Error(), "1 of 2 programs failed") {
		t.Errorf("batch with a bad file returned %v", err)
	}
}

// TestTransformDegradedOnPanic checks the single-file path's
// containment: an injected optimizer panic must surface as a non-nil
// error *plus* a usable program — the input unchanged — so run() can
// still print something and exit non-zero.
func TestTransformDegradedOnPanic(t *testing.T) {
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.EliminatePhase {
			panic("injected cli fault")
		}
	})
	defer restore()

	prog, err := pdce.ParseSource("t", "y := a+b\nif * { y := c }\nout(y)")
	if err != nil {
		t.Fatal(err)
	}
	withMode(t, "pde", func() {
		opt, _, err := transform(prog)
		if err == nil {
			t.Fatal("injected panic not reported")
		}
		if !errors.Is(err, pdce.ErrPanic) {
			t.Errorf("error does not match ErrPanic: %v", err)
		}
		if opt == nil || opt.Format() != prog.Format() {
			t.Error("degraded result is not the unchanged input")
		}
	})
}

// setFlag overrides a flag variable for the duration of the test.
func setFlag[T any](t *testing.T, p *T, v T) {
	t.Helper()
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// runWithStdin drives the full single-file run() path with the program
// fed through standard input, returning captured standard output.
func runWithStdin(t *testing.T, src string) (string, error) {
	t.Helper()
	oldIn, oldOut := os.Stdin, os.Stdout
	inR, inW, _ := os.Pipe()
	outR, outW, _ := os.Pipe()
	os.Stdin, os.Stdout = inR, outW
	go func() {
		io.WriteString(inW, src)
		inW.Close()
	}()
	err := run()
	outW.Close()
	os.Stdin, os.Stdout = oldIn, oldOut
	var b strings.Builder
	io.Copy(&b, outR)
	return b.String(), err
}

// TestRunExplain checks the -explain surface end to end: the journey of
// a sunk-then-eliminated assignment replaces the program listing.
func TestRunExplain(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", "stats.while"))
	if err != nil {
		t.Fatal(err)
	}
	setFlag(t, mode, "pde")
	setFlag(t, explainVar, "sq")
	out, err := runWithStdin(t, string(src))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "provenance of sq:") {
		t.Errorf("-explain did not replace the listing: %q", out)
	}
	for _, want := range []string{"removed from block", "inserted at", "eliminated"} {
		if !strings.Contains(out, want) {
			t.Errorf("-explain output misses %q:\n%s", want, out)
		}
	}
}

// TestRunMetricsJSONStdout checks that -metrics-json - emits a report
// that parses as pdce.Report, with the telemetry section populated, and
// that the JSON payload replaces the program listing on stdout.
func TestRunMetricsJSONStdout(t *testing.T) {
	setFlag(t, mode, "pde")
	setFlag(t, metricsJSON, "-")
	out, err := runWithStdin(t, "y := a+b\nif * { y := c }\nout(y)\n")
	if err != nil {
		t.Fatal(err)
	}
	var rep pdce.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a single JSON report: %v\n%s", err, out)
	}
	if rep.Name != "stdin" || !rep.OK {
		t.Errorf("report header = %q ok=%v", rep.Name, rep.OK)
	}
	if rep.Stats.Rounds == 0 {
		t.Error("report has no rounds")
	}
	if rep.Stats.Telemetry == nil || rep.Stats.Telemetry.Delay.Solves == 0 {
		t.Errorf("report telemetry missing or empty: %+v", rep.Stats.Telemetry)
	}
}

// TestRunTraceJSONFile checks that -trace-json writes a parseable,
// densely-numbered event stream to a file while the program listing
// still goes to stdout.
func TestRunTraceJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	setFlag(t, mode, "pfe")
	setFlag(t, traceJSON, path)
	out, err := runWithStdin(t, "y := a+b\nif * { y := c }\nout(y)\n")
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Error("file output must not suppress the program listing")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []pdce.TraceEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (stream must be dense)", i, ev.Seq)
		}
	}
}

// TestRunPassesIgnoresMode: -passes runs its pipeline alone. -mode
// names a transformation -passes replaces, so neither an unknown -mode
// nor pde's -timeout can fail the run, and the listing is the
// pipeline's result.
func TestRunPassesIgnoresMode(t *testing.T) {
	const src = "y := a+b\nif * { y := c }\nx := 1\nout(y)\n"
	prog, err := pdce.ParseSource("stdin", src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Passes("dce")
	if err != nil {
		t.Fatal(err)
	}
	setFlag(t, passes, "dce")
	setFlag(t, timeout, time.Nanosecond)
	for _, m := range []string{"bogus", "pde"} {
		setFlag(t, mode, m)
		out, err := runWithStdin(t, src)
		if err != nil {
			t.Errorf("-passes dce -mode %s -timeout 1ns: %v", m, err)
		}
		if out != want.String() {
			t.Errorf("-passes dce -mode %s printed\n%s\nwant dce's result\n%s", m, out, want.String())
		}
	}
}

// TestFailureLinesCarryOnePrefix: each failure line starts with exactly
// one "pdce: ", although the pdce package's errors carry their own —
// main's line for a failed run, and a batch's line for a file that
// does not parse.
func TestFailureLinesCarryOnePrefix(t *testing.T) {
	for _, c := range []struct{ passes, mode string }{{"dce,bogus", "pde"}, {"", "bogus"}} {
		setFlag(t, passes, c.passes)
		setFlag(t, mode, c.mode)
		_, err := runWithStdin(t, "out(1)\n")
		if err == nil {
			t.Fatalf("-passes %q -mode %q succeeded", c.passes, c.mode)
		}
		if got, want := "pdce: "+message(err), `pdce: unknown pass "bogus"`; got != want {
			t.Errorf("-passes %q -mode %q printed %q, want %q", c.passes, c.mode, got, want)
		}
	}

	setFlag(t, passes, "")
	setFlag(t, mode, "pde")
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.while"), filepath.Join(dir, "bad.while")
	os.WriteFile(good, []byte("out(1)\n"), 0o644)
	os.WriteFile(bad, []byte("out(\n"), 0o644)
	oldOut, oldErr := os.Stdout, os.Stderr
	r, w, _ := os.Pipe()
	os.Stdout, _ = os.Open(os.DevNull)
	os.Stderr = w
	runBatch([]string{good, bad})
	w.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	var buf strings.Builder
	io.Copy(&buf, r)
	if line := strings.TrimSpace(buf.String()); !strings.HasPrefix(line, "pdce: "+bad+": parse") {
		t.Errorf("batch printed %q for an unparsable file, want one \"pdce: \" then the path", line)
	}
}

// TestRunObservabilityGuards checks flag validation on the single-file
// path.
func TestRunObservabilityGuards(t *testing.T) {
	setFlag(t, mode, "dce")
	setFlag(t, explainVar, "x")
	if _, err := runWithStdin(t, "out(1)\n"); err == nil || !strings.Contains(err.Error(), "require -mode pde or pfe") {
		t.Errorf("-explain with -mode dce returned %v", err)
	}

	setFlag(t, mode, "pde")
	setFlag(t, explainVar, "")
	setFlag(t, teleAddr, "127.0.0.1:0")
	if _, err := runWithStdin(t, "out(1)\n"); err == nil || !strings.Contains(err.Error(), "batch mode") {
		t.Errorf("-telemetry-addr on one file returned %v", err)
	}
}

// TestServeProgress checks the batch telemetry endpoint: GET /progress
// returns the tracker snapshot as JSON.
func TestServeProgress(t *testing.T) {
	var tk pdce.BatchTracker
	shutdown, addr, err := serveProgress("127.0.0.1:0", &tk)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr.String() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var p pdce.BatchProgress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Total != 0 || p.Done != 0 {
		t.Errorf("fresh tracker snapshot = %+v", p)
	}
}

// TestServeProgressReleasesPort is the regression test for the
// -telemetry-addr listener leak: shutting the endpoint down
// immediately after starting it (a fast batch) could race srv.Close
// against the Serve goroutine and leave the port bound. Rebinding the
// same fixed port across many start/stop cycles fails within a few
// iterations if the listener leaks.
func TestServeProgressReleasesPort(t *testing.T) {
	var tk pdce.BatchTracker
	shutdown, addr, err := serveProgress("127.0.0.1:0", &tk)
	if err != nil {
		t.Fatal(err)
	}
	port := addr.String()
	shutdown()
	for i := 0; i < 20; i++ {
		shutdown, _, err := serveProgress(port, &tk)
		if err != nil {
			t.Fatalf("iteration %d: port %s still bound: %v", i, port, err)
		}
		shutdown()
	}
}

// TestRunBatchMetricsReport drives batch mode with -metrics-json: the
// report must cover every input in order — including the parse failure
// — and carry the aggregated batch metrics.
func TestRunBatchMetricsReport(t *testing.T) {
	dir := t.TempDir()
	good1 := filepath.Join(dir, "1good.while")
	bad := filepath.Join(dir, "2bad.while")
	good2 := filepath.Join(dir, "3good.while")
	os.WriteFile(good1, []byte("x := a+b\nif * { out(x) }\n"), 0o644)
	os.WriteFile(bad, []byte("out(\n"), 0o644)
	os.WriteFile(good2, []byte("y := 1\nout(2)\n"), 0o644)
	reportPath := filepath.Join(dir, "report.json")
	setFlag(t, metricsJSON, reportPath)

	oldStdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	err := runBatch([]string{good1, bad, good2})
	os.Stdout = oldStdout
	if err == nil || !strings.Contains(err.Error(), "1 of 3 programs failed") {
		t.Fatalf("batch returned %v", err)
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var br pdce.BatchReport
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Programs) != 3 {
		t.Fatalf("report covers %d programs, want 3", len(br.Programs))
	}
	if br.Programs[0].Name != "1good" || br.Programs[1].Name != "2bad" || br.Programs[2].Name != "3good" {
		t.Errorf("report order wrong: %s, %s, %s", br.Programs[0].Name, br.Programs[1].Name, br.Programs[2].Name)
	}
	if br.Programs[1].OK || br.Programs[1].Error == "" {
		t.Errorf("parse failure not recorded: %+v", br.Programs[1])
	}
	for _, i := range []int{0, 2} {
		p := br.Programs[i]
		if !p.OK || p.Stats.Telemetry == nil || p.DurationNS <= 0 {
			t.Errorf("program %s: ok=%v telemetry=%v duration=%d", p.Name, p.OK, p.Stats.Telemetry != nil, p.DurationNS)
		}
	}
	if br.Batch.Jobs != 2 || br.Batch.Failed != 0 {
		t.Errorf("batch metrics = %+v", br.Batch)
	}
	if br.Batch.P50NS <= 0 || br.Batch.MaxNS < br.Batch.P50NS {
		t.Errorf("batch percentiles = p50 %d max %d", br.Batch.P50NS, br.Batch.MaxNS)
	}
}

// TestRunBatchDegradedJob checks that a job whose optimization panics
// still prints its (unchanged) program under its header while the exit
// status reports the failure.
func TestRunBatchDegradedJob(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.while")
	victim := filepath.Join(dir, "victim.while")
	os.WriteFile(good, []byte("x := a+b\nif * { out(x) }\n"), 0o644)
	os.WriteFile(victim, []byte("y := 1\nout(2)\n"), 0o644)

	restore := faultinject.Set(func(p faultinject.Point, payload any) {
		if g, ok := payload.(*cfg.Graph); ok && p == faultinject.EliminatePhase && g.Name == "victim" {
			panic("injected batch cli fault")
		}
	})
	defer restore()

	oldStdout := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	err := runBatch([]string{good, victim})
	w.Close()
	os.Stdout = oldStdout
	var buf strings.Builder
	io.Copy(&buf, r)
	out := buf.String()

	if err == nil || !strings.Contains(err.Error(), "1 of 2 programs failed") {
		t.Errorf("degraded batch returned %v", err)
	}
	if !strings.Contains(out, "==> "+good) || !strings.Contains(out, "==> "+victim) {
		t.Errorf("batch output misses a header: %q", out)
	}
	// The victim's degraded (unchanged) program must still be printed.
	if !strings.Contains(out, "out(2)") {
		t.Errorf("degraded program not printed: %q", out)
	}
}
