package pdce

import (
	"errors"
	"fmt"
)

// The structured error taxonomy of the failure-containment layer.
// Every failure the package can report — from the parsing front ends,
// Optimize, SafeOptimize, or OptimizeAll — matches exactly one of the
// sentinel errors below under errors.Is, and errors.As recovers the
// corresponding structured error for details:
//
//	ErrParse      → *ParseError       the input did not parse
//	ErrPanic      → *PanicError       the optimizer panicked; the
//	                                  input program is returned
//	                                  unchanged and a repro bundle is
//	                                  captured
//	ErrDeadline   → *DeadlineError    the watchdog stopped the run;
//	                                  the best phase-boundary program
//	                                  is returned
//	ErrMiscompile → *MiscompileError  verified mode caught a semantic
//	                                  mismatch; the last verified
//	                                  program is returned
//
// The taxonomy exists so that a batch caller can triage failures
// without string matching: parse errors are the input's fault,
// deadlines are capacity policy, panics and miscompiles are optimizer
// bugs worth a repro bundle and a bug report.
var (
	// ErrParse marks failures of ParseCFG and ParseSource.
	ErrParse = errors.New("pdce: parse error")
	// ErrPanic marks internal optimizer panics contained by
	// SafeOptimize or OptimizeAll.
	ErrPanic = errors.New("pdce: internal panic in optimizer")
	// ErrDeadline marks runs stopped by Options.Context or
	// Options.RoundBudget. The accompanying program is valid and
	// correct, possibly short of the optimum.
	ErrDeadline = errors.New("pdce: optimization deadline exceeded")
	// ErrMiscompile marks runs rolled back by verified mode
	// (Options.Verify) after the semantics oracle rejected a round.
	ErrMiscompile = errors.New("pdce: verified mode detected a semantic mismatch")
)

// ParseError wraps a front-end parse failure with the program (or
// file) name. It matches ErrParse and the parser's underlying
// positioned error under errors.Is/As.
type ParseError struct {
	// Name is the program name (ParseSource) or "cfg input"
	// (ParseCFG); cmd-line callers overwrite it with the file path.
	Name string
	// Err is the parser's error, carrying line/column position.
	Err error
}

func (e *ParseError) Error() string { return fmt.Sprintf("pdce: parse %s: %v", e.Name, e.Err) }

func (e *ParseError) Unwrap() []error { return []error{ErrParse, e.Err} }

// PanicError is an optimizer panic contained by SafeOptimize or
// OptimizeAll. The caller received the input program unchanged.
type PanicError struct {
	// Value is the recovered panic value, Stack the goroutine stack
	// at the panic site.
	Value any
	Stack string
	// Bundle is the path of the repro bundle written to
	// Options.ReproDir ("" when no directory was configured or the
	// write failed; BundleErr carries a failed write's error).
	Bundle    string
	BundleErr error
}

func (e *PanicError) Error() string {
	if e.Bundle != "" {
		return fmt.Sprintf("pdce: optimizer panicked: %v (repro bundle: %s)", e.Value, e.Bundle)
	}
	return fmt.Sprintf("pdce: optimizer panicked: %v", e.Value)
}

func (e *PanicError) Unwrap() error { return ErrPanic }

// DeadlineError is a run stopped by the watchdog. The caller received
// the best phase-boundary program reached — semantically correct,
// possibly short of the optimum (Options.MaxRounds truncation has the
// same correctness contract).
type DeadlineError struct {
	// Rounds is the number of driver rounds entered before the stop;
	// Phase names the checkpoint that observed it ("round",
	// "eliminate", or "sink").
	Rounds int
	Phase  string
	// Cause is context.DeadlineExceeded, context.Canceled, or
	// core.ErrRoundBudget — errors.Is sees through to it.
	Cause error
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("pdce: optimization stopped at %s after %d rounds: %v", e.Phase, e.Rounds, e.Cause)
}

func (e *DeadlineError) Unwrap() []error { return []error{ErrDeadline, e.Cause} }

// MiscompileError is a verified-mode rollback: the semantics oracle
// rejected the program after round Round, and the caller received the
// program as of round GoodRound (0 = the unoptimized input) instead.
type MiscompileError struct {
	Round, GoodRound int
	// Report is the oracle's verdict (the first violation found).
	Report string
}

func (e *MiscompileError) Error() string {
	return fmt.Sprintf("pdce: round %d miscompiled, rolled back to round %d: %s",
		e.Round, e.GoodRound, e.Report)
}

func (e *MiscompileError) Unwrap() error { return ErrMiscompile }

// ErrorKind names err's class in the words pdced's error_kind, its
// solve and batch.job span errors and BatchMetrics' failure classes
// use: "deadline", "miscompile" or "panic" for the taxonomy's
// containment errors, "error" for any other failure, "" for nil.
func ErrorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrMiscompile):
		return "miscompile"
	case errors.Is(err, ErrPanic):
		return "panic"
	}
	return "error"
}
