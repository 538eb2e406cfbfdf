package pdce

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Content addressing.
//
// The paper's transformation is deterministic: the delayability and
// dead/faint analyses are fixpoints over a lattice with a unique
// solution, and Theorem 3.7 guarantees the driver's result is unique
// regardless of iteration order. Optimize is therefore a pure function
// of (canonical program text, result-determining options), which makes
// results perfectly content-addressable: two requests with the same
// CacheKey are guaranteed the same optimized program, statement for
// statement. The serving layer (internal/server, cmd/pdced) builds its
// result cache on exactly this property.

// cacheKeyVersion is bumped whenever the canonical rendering or the
// option fingerprint changes meaning, so stale disk-spill entries from
// older builds can never be served.
const cacheKeyVersion = "pdce-cache-v2"

// CacheKeyVersion exposes the cache-key format version. Fleet-shared
// stores (internal/store) prefix their keys with it so replicas built
// against a different key format can never serve each other stale
// results — a mixed-version fleet degrades to a cold store, not to
// wrong answers.
func CacheKeyVersion() string { return cacheKeyVersion }

// Fingerprint digests the result-determining options into a short
// stable string. Two Options values with equal fingerprints and
// Cacheable() true produce identical results for the same program.
//
// Deliberately excluded: Context, RoundBudget, Verify, VerifyRuns, and
// ReproDir only decide whether a run is cut short or rolled back —
// a run that completes without error under them is identical to one
// without; errored (partial) results are never cached. Telemetry and
// Trace are included because they change the response payload
// (Stats.Telemetry), not the program.
func (o Options) Fingerprint() string {
	telemetry := o.Telemetry || o.Trace
	return fmt.Sprintf("mode=%s;max-rounds=%d;keep-synthetic=%v;telemetry=%v;trace=%v",
		o.Mode, o.MaxRounds, o.KeepSynthetic, telemetry, o.Trace)
}

// Cacheable reports whether results computed under o are
// content-addressable. A Hot predicate localizes the optimization to a
// caller-chosen region — the result depends on a function value that
// cannot be fingerprinted — and an Observe callback is a side channel
// the caller evidently wants invoked, so both disable caching.
func (o Options) Cacheable() bool {
	return o.Hot == nil && o.Observe == nil
}

// CacheKey returns the content address of (p, o): the hex SHA-256 of
// the program's canonical rendering plus the options fingerprint.
//
// The canonical rendering is Format(), which is independent of the
// source text the program was parsed from: whitespace, comments, and
// statement spelling variations that parse to the same flow graph all
// map to the same key, while any semantic difference — a changed
// operand, statement, edge, or block — changes it. The program name
// participates (it is part of the rendered result), so identical
// bodies under different names address distinct entries.
func (p *Program) CacheKey(o Options) string {
	buf := append([]byte(cacheKeyVersion+"\n"), o.Fingerprint()...)
	sum := sha256.Sum256(p.g.AppendFormat(append(buf, '\n')))
	return hex.EncodeToString(sum[:])
}
