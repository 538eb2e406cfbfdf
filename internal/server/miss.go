package server

import (
	"context"
	"encoding/json"
	"errors"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/obs"
)

// The miss path.
//
// A result is a pure function of (canonical program, options)
// (Theorem 3.7), so a key L1 misses may be answered from L2, by the
// singleflight leader that just solved it, by the replica holding its
// lease, or by a solve of its own, and every one of those answers is
// the same bytes. POST /optimize, each /optimize/batch entry and the
// job queue resolve a miss through one ladder: claimMiss runs the steps
// that can end without a solve, and claim.solve runs the solve. Each
// caller keeps what is its own: the L1 lookup (the request memo for
// /optimize and each /optimize/batch entry, the job's key for a job),
// the mapping of the outcome to a reply or an entry in the handlers,
// retry, poison and the WAL in the queue. The handlers run the ladder
// through resolveMiss, which adds the admission slot the queue's own
// workers do without.

// cacheGet looks key up in L1 under a server.cache span.
func (s *Server) cacheGet(key string, sp *obs.Span) ([]byte, bool) {
	csp := sp.Child("server.cache")
	body, hit := s.cache.Get(key)
	if hit {
		csp.SetAttr("outcome", "hit")
	} else {
		csp.SetAttr("outcome", "miss")
	}
	csp.End()
	return body, hit
}

type flightCall struct{ done chan struct{} }

// joinFlight registers interest in key. The first caller becomes the
// leader (and must leaveFlight when finished); followers receive the
// call to wait on.
func (s *Server) joinFlight(key string) (leader bool, c *flightCall) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if c, ok := s.flight[key]; ok {
		return false, c
	}
	c = &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	return true, c
}

func (s *Server) leaveFlight(key string, c *flightCall) {
	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(c.done)
}

// claim is a caller's hold on a key that no stored result answered,
// taken by claimMiss. It holds the process singleflight when its caller
// leads it, and the cluster lease when one was won. The caller finishes
// it on every exit, whether it solved or not.
type claim struct {
	s       *Server
	key     string
	sp      *obs.Span
	call    *flightCall // the singleflight this caller leads; nil for a follower
	release func()      // frees the lease; noRelease once the L2 publish took it
}

// claimMiss resolves an L1 miss on key as far as it can without a
// solve, tracing under sp. It joins the process singleflight, where a
// follower waits for its leader and serves what the leader put in L1;
// it reads L2; and it races the fleet for the key's lease, where a lost
// race waits for the winner's published result. It returns either a
// body to serve with its cache state (hit from L2, dedup from a leader
// or a lease winner) or a claim on key; err is ctx's error when ctx
// ended a follower's wait. It counts an L2 hit in cache_hits, a dedup
// in dedups, and a key that L2 misses in cache_misses.
func (s *Server) claimMiss(ctx context.Context, key string, sp *obs.Span) ([]byte, pdce.CacheState, *claim, error) {
	c := &claim{s: s, key: key, sp: sp, release: noRelease}
	leader, call := s.joinFlight(key)
	if leader {
		c.call = call
	} else {
		wsp := sp.Child("server.flight.wait")
		select {
		case <-call.done:
			wsp.End()
		case <-ctx.Done():
			wsp.SetError("canceled")
			wsp.End()
			return nil, "", nil, ctx.Err()
		}
		if body, ok := s.cache.Get(key); ok {
			s.stats.Dedups.Add(1)
			return body, pdce.CacheDedup, nil, nil
		}
		// The leader failed and cached nothing: go on alone.
	}
	if body, ok := s.l2Get(key, sp); ok {
		c.finish()
		s.stats.CacheHits.Add(1)
		return body, pdce.CacheHit, nil, nil
	}
	s.stats.CacheMisses.Add(1)
	body, release := s.l2Flight(ctx, key, sp)
	if body != nil {
		c.finish()
		s.stats.Dedups.Add(1)
		return body, pdce.CacheDedup, nil, nil
	}
	c.release = release
	return nil, "", c, nil
}

// finish ends c: it frees a lease the L2 publish did not take and wakes
// the singleflight's followers, which serve what c put in L1 or, finding
// nothing, go on alone.
func (c *claim) finish() {
	c.release()
	if c.call != nil {
		c.s.leaveFlight(c.key, c.call)
	}
}

// solve runs prog under c with the options ro maps to, tagged with the
// request id tag. It bounds ctx by ro.Deadline (0 takes the server's
// default), completes the options with the server's round budget,
// repro directory and a solve span, runs SafeOptimize and encodes the
// response once, and counts the run in optimizes. It returns the body
// and the run's error. A nil error is a clean result, put in L1 and
// published to L2, which takes c's lease. A body with an error is
// degraded: correct but partial, marked so in the body and never
// stored. No body is a contained panic (*pdce.PanicError), which
// touched no cache, or a failed encode.
func (c *claim) solve(ctx context.Context, prog *pdce.Program, ro pdce.RequestOptions, tag string) ([]byte, error) {
	s := c.s
	ctx, cancel := s.withDeadline(ctx, ro.Deadline)
	defer cancel()
	o := ro.Options()
	o.RequestTag = tag
	o.Context = ctx
	o.RoundBudget = s.cfg.RoundBudget
	o.ReproDir = s.cfg.ReproDir
	ssp := c.sp.Child("solve")
	o.Span = ssp

	s.stats.Optimizes.Add(1)
	opt, st, err := prog.SafeOptimize(o)
	if err != nil {
		ssp.SetError(pdce.ErrorKind(err))
	}
	ssp.End()
	if errors.As(err, new(*pdce.PanicError)) {
		return nil, err
	}
	resp := s.buildResponse(prog.Name(), c.key, o, opt, st, ro.Explain)
	if err != nil {
		resp.Degraded = true
		resp.Error = err.Error()
		resp.ErrorKind = pdce.ErrorKind(err)
	}
	body, merr := json.Marshal(resp)
	if merr != nil {
		return nil, merr
	}
	if err == nil {
		s.cache.Put(c.key, body)
		s.l2Put(c.key, body, c.sp, c.release)
		c.release = noRelease
	}
	return body, err
}

// resolveMiss resolves one POST /optimize or /optimize/batch entry that
// L1 missed (l, from lookup) under ro, tagged with the request id tag
// and traced under sp: claimMiss, then an admission slot, the
// ServerRequest fault point and claim.solve under the claim. It returns
// a body to serve with its cache state — a clean result, a degraded one
// (counted in degraded), or a stored result from L2, a singleflight
// leader or a lease winner — or an error: ErrQueueFull when admission
// shed the request (counted in shed_queue_full), ctx's error when ctx
// ended a wait, a *pdce.PanicError for a contained panic (counted in
// panics), or a failed encode. admitted reports whether the request
// reached admission.
func (s *Server) resolveMiss(ctx context.Context, l cacheLookup, ro pdce.RequestOptions, tag string, sp *obs.Span) (body []byte, state pdce.CacheState, admitted bool, err error) {
	body, state, c, err := s.claimMiss(ctx, l.key, sp)
	if c == nil {
		return body, state, false, err
	}
	defer c.finish()

	asp := sp.Child("server.admission")
	if err := s.adm.Acquire(ctx); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.stats.ShedQueueFull.Add(1)
			asp.SetError("queue-full")
		} else {
			asp.SetError("canceled")
		}
		asp.End()
		return nil, "", true, err
	}
	asp.End()
	defer s.adm.Release()
	faultinject.Fire(faultinject.ServerRequest, l.prog.Name())

	body, err = c.solve(ctx, l.prog, ro, tag)
	switch {
	case body != nil && err != nil:
		s.stats.Degraded.Add(1)
	case errors.Is(err, pdce.ErrPanic):
		s.stats.Panics.Add(1)
	}
	return body, pdce.CacheMiss, true, err
}
