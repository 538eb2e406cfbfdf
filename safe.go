package pdce

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/verify"
)

// SafeOptimize is Optimize hardened for service use: every failure
// mode degrades to a usable program plus a structured error from the
// taxonomy in errors.go, and the returned Program is never nil.
//
//   - An internal panic is recovered; the input program is returned
//     unchanged with a *PanicError, and a repro bundle (the serialized
//     input, the options, and the stack) is written to Options.ReproDir
//     when one is configured.
//   - A watchdog expiry (Options.Context or Options.RoundBudget)
//     returns the best phase-boundary program reached with a
//     *DeadlineError — correct, possibly short of the optimum.
//   - With Options.Verify set, every round's result is checked against
//     the input by the decision-enumeration oracle on a bounded
//     execution sample; a mismatch returns the last verified program
//     with a *MiscompileError.
//   - Any other error (e.g. an invalid input graph) returns the input
//     program unchanged alongside it.
//
// The successful path is identical to Optimize — in particular it is
// deterministic (Theorem 3.7: the fixpoint result is unique), so a
// successful SafeOptimize result is content-addressable by
// Program.CacheKey and safe to memoize; the pdced server's result
// cache relies on this. Errored results, being partial or degraded,
// are not.
func (p *Program) SafeOptimize(o Options) (res *Program, st Stats, err error) {
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			pe := &PanicError{Value: v, Stack: string(stack)}
			pe.Bundle, pe.BundleErr = writeReproBundle(o.ReproDir, p, o, v, stack)
			res, st, err = p, Stats{}, pe
		}
	}()
	res, st, err = p.Optimize(o)
	if res == nil {
		res = p
	}
	return res, st, err
}

// mapCoreError lifts the driver's containment errors into the public
// taxonomy; anything else passes through.
func mapCoreError(err error) error {
	var ie *core.InterruptError
	if errors.As(err, &ie) {
		return &DeadlineError{Rounds: ie.Rounds, Phase: ie.Phase, Cause: ie.Cause}
	}
	var re *core.RoundCheckError
	if errors.As(err, &re) {
		return &MiscompileError{Round: re.Round, GoodRound: re.GoodRound, Report: re.Err.Error()}
	}
	return err
}

// defaultVerifyRuns is the per-round execution sample of verified mode
// when Options.VerifyRuns is zero. Matches the scale of the repo's
// other sampling oracles (Check's default of 64 over a whole run) while
// keeping per-round cost bounded.
const defaultVerifyRuns = 48

// verifyRoundCheck builds the verified-mode oracle for one input
// program: the driver calls it after every round with the intermediate
// graph. It prefers the decision-enumeration oracle (every
// nondeterministic execution up to the run bound — exact for
// figure-sized programs) and falls back to seeded sampling when the
// decision tree exceeds the bound.
func verifyRoundCheck(orig *cfg.Graph, runs int) func(*cfg.Graph, int) error {
	if runs <= 0 {
		runs = defaultVerifyRuns
	}
	return func(g *cfg.Graph, round int) error {
		rep, err := verify.CheckTransformedExhaustive(orig, g, 0, runs)
		if err != nil {
			rep = verify.CheckTransformed(orig, g, verify.Options{Seeds: runs})
		}
		if !rep.OK() {
			return fmt.Errorf("%s", rep.String())
		}
		return nil
	}
}

// writeReproBundle serializes a panicking run — input program, options,
// panic value, stack — into dir and returns the bundle path. The
// bundle doubles as a parseable CFG-language program (everything but
// the program text is comments), so `pdce -lang cfg bundle` replays
// the input directly. An empty dir disables writing.
func writeReproBundle(dir string, p *Program, o Options, v any, stack []byte) (string, error) {
	if dir == "" {
		return "", nil
	}
	var b strings.Builder
	b.WriteString("# pdce repro bundle — replay with: pdce -lang cfg <this file>\n")
	fmt.Fprintf(&b, "# program: %s\n", p.Name())
	fmt.Fprintf(&b, "# options: mode=%v max-rounds=%d keep-synthetic=%v verify=%v round-budget=%v hot=%v\n",
		o.Mode, o.MaxRounds, o.KeepSynthetic, o.Verify, o.RoundBudget, o.Hot != nil)
	fmt.Fprintf(&b, "# panic: %v\n#\n", v)
	for _, line := range strings.Split(strings.TrimRight(string(stack), "\n"), "\n") {
		b.WriteString("# ")
		b.WriteString(line)
		b.WriteString("\n")
	}
	b.WriteString("#\n")
	b.WriteString(p.Format())
	content := b.String()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	h := fnv.New32a()
	h.Write([]byte(content))
	// Stamp the request tag (the serving layer's Pdce-Request-Id) into
	// the filename so an operator can go from a failed response
	// straight to its bundle.
	tag := ""
	if o.RequestTag != "" {
		tag = "-" + sanitizeName(o.RequestTag)
	}
	path := filepath.Join(dir, fmt.Sprintf("pdce-repro-%s%s-%08x.cfg", sanitizeName(p.Name()), tag, h.Sum32()))
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sanitizeName reduces a program name to a filesystem-safe token.
func sanitizeName(name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
	if mapped == "" {
		return "program"
	}
	const maxLen = 64
	if len(mapped) > maxLen {
		mapped = mapped[:maxLen]
	}
	return mapped
}
