package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"pdce"
	"pdce/internal/obs"
	"pdce/internal/store"
)

// Shared L2 result store.
//
// The in-memory LRU (cache.go) is one replica's memory of Theorem 3.7
// determinism; the shared store is the fleet's. A pluggable
// store.Backend sits behind every replica's L1: a local miss consults
// the store before solving (backfilling L1 on a hit), and every local
// solve publishes its result back, best-effort and asynchronously. A
// rescheduled replica therefore boots warm — its predecessor's
// results, and its siblings', are one Get away.
//
// The store also extends the in-process singleflight cluster-wide:
// before solving a key no replica has published, the replica races a
// TTL lease (store.Lease) over the same backend. The winner solves
// and publishes; losers poll for the winner's result and fall back to
// a local solve only when the lease expires (owner crashed) or the
// backend fails. Every store failure mode degrades to "solve locally"
// — the L2 tier can slow a cold fleet down, never break it.
//
// Store keys are the L1 content address prefixed with the cache-key
// format version (store.VersionedKey), so replicas from different
// builds sharing one store address disjoint key spaces.

// admitResult reports whether body, read back from outside this
// process (the spill directory, the L2 store, a peer's push), may
// answer the L1 key key: it must decode as a pdce.OptimizeResponse
// whose key is key and whose program parses. Every stored body passes
// through it before it reaches L1 (Cache.admitStored); a body that
// fails is counted in cache.rejected and the request solves locally.
// The check proves a body well-formed and addressed to key, not that
// its program is the optimum of the request's.
func admitResult(key string, body []byte) bool {
	var resp pdce.OptimizeResponse
	if json.Unmarshal(body, &resp) != nil || resp.Key != key {
		return false
	}
	_, err := pdce.ParseCFG(resp.Program)
	return err == nil
}

// storeKey maps a raw L1 cache key to its versioned store key.
func (s *Server) storeKey(key string) string {
	return store.VersionedKey(s.cfg.StoreVersion, key)
}

// StoreStats exposes the L2 counters (tests, cmd/pdced logging); nil
// when no store is configured.
func (s *Server) StoreStats() *obs.StoreStats { return s.storeStats }

// randomOwner derives a boot-unique lease owner id. A restarted
// replica must not inherit its dead predecessor's leases, so the id is
// random per process, never host-derived.
func randomOwner() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "pdced-unknown"
	}
	return "pdced-" + hex.EncodeToString(b[:])
}

// l2Get consults the shared store for key after an L1 miss. A hit that
// admitResult accepts backfills L1 (memory and spill) so the next
// request is local. Backend errors and rejected bodies are counted and
// served as misses.
func (s *Server) l2Get(key string, sp *obs.Span) ([]byte, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	gsp := sp.Child("cache.l2.get")
	start := time.Now()
	body, err := s.cfg.Store.Get(s.storeKey(key))
	s.storeStats.RecordGetLatency(time.Since(start))
	switch {
	case err == nil && !s.cache.admitStored(key, body):
		gsp.SetError("rejected")
		gsp.End()
	case err == nil:
		s.storeStats.AddL2Hit()
		gsp.SetAttr("outcome", "hit")
		gsp.End()
		s.cache.Put(key, body)
		return body, true
	case errors.Is(err, store.ErrNotFound):
		s.storeStats.AddL2Miss()
		gsp.SetAttr("outcome", "miss")
		gsp.End()
	default:
		s.storeStats.AddGetFailure()
		gsp.SetError("backend")
		gsp.End()
	}
	return nil, false
}

// noRelease is the release func for paths that hold no lease.
func noRelease() {}

// l2Flight is the cluster-wide singleflight: called by a replica about
// to solve key (L1 and L2 both missed), it arbitrates solve ownership
// over the store. It returns either the result body (another replica
// won and published — serve it, nothing to release) or a release func
// the caller must invoke once its own result is published or the solve
// abandoned. A nil body with noRelease means solve locally without a
// lease (store disabled, backend down, or caller canceled) — the
// always-safe degradation.
func (s *Server) l2Flight(ctx context.Context, key string, sp *obs.Span) ([]byte, func()) {
	if s.cfg.Store == nil || s.lease == nil {
		return nil, noRelease
	}
	sk := s.storeKey(key)
	asp := sp.Child("lease.acquire")
	won, err := s.lease.Acquire(sk)
	if err != nil {
		s.storeStats.AddLeaseError()
		asp.SetError("backend")
		asp.End()
		return nil, noRelease
	}
	if won {
		s.storeStats.AddLeaseWin()
		asp.SetAttr("outcome", "won")
		asp.End()
		return nil, func() { s.lease.Release(sk) }
	}
	s.storeStats.AddLeaseLoss()
	asp.SetAttr("outcome", "lost")
	asp.End()

	// Another replica owns the solve. Poll for its published result;
	// re-arbitrate each round so an expired lease (the owner crashed)
	// hands the solve to us instead of wedging. Leases are never
	// renewed, so one of the two exits is guaranteed within a TTL.
	interval := s.lease.TTL() / 10
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	wsp := sp.Child("lease.wait")
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			wsp.SetError("canceled")
			wsp.End()
			return nil, noRelease
		case <-t.C:
		}
		body, err := s.cfg.Store.Get(sk)
		if err == nil && !s.cache.admitStored(key, body) {
			// Blobs are write-once, so the owner's publish cannot
			// replace this one: waiting is futile, solve locally.
			wsp.SetError("rejected")
			wsp.End()
			return nil, noRelease
		}
		if err == nil {
			s.storeStats.AddLeaseFetch()
			wsp.SetAttr("outcome", "fetched")
			wsp.End()
			s.cache.Put(key, body)
			return body, noRelease
		}
		if !errors.Is(err, store.ErrNotFound) {
			s.storeStats.AddGetFailure()
			wsp.SetError("backend")
			wsp.End()
			return nil, noRelease
		}
		won, err := s.lease.Acquire(sk)
		if err != nil {
			s.storeStats.AddLeaseError()
			wsp.SetError("backend")
			wsp.End()
			return nil, noRelease
		}
		if won {
			// The owner died before publishing; the solve is ours now.
			s.storeStats.AddLeaseWin()
			wsp.SetAttr("outcome", "took-over")
			wsp.End()
			return nil, func() { s.lease.Release(sk) }
		}
	}
}

// l2Put publishes a freshly solved result to the shared store and then
// releases the solve lease, both asynchronously — the response goes
// out without waiting on the backend. A failed put costs the fleet a
// warm entry, never the request; the span marks the scheduling point
// (the upload outlives the request, and late-ending spans would be
// dropped by the trace store).
func (s *Server) l2Put(key string, body []byte, sp *obs.Span, release func()) {
	if s.cfg.Store == nil {
		release()
		return
	}
	sp.Child("cache.l2.put").End()
	s.l2wg.Add(1)
	go func() {
		defer s.l2wg.Done()
		defer release()
		if _, err := s.cfg.Store.Put(s.storeKey(key), body); err != nil {
			s.storeStats.AddPutFailure()
			return
		}
		s.storeStats.AddPut()
	}()
}

// storeSnapshot freezes the /metrics store section; nil when no store
// is configured.
func (s *Server) storeSnapshot() *obs.StoreSnapshot {
	if s.cfg.Store == nil {
		return nil
	}
	var g obs.StoreGauges
	if st, err := s.cfg.Store.Stats(); err == nil {
		g.Blobs = st.Blobs
		g.Bytes = st.Bytes
	}
	snap := s.storeStats.Snapshot(g)
	return &snap
}

// --- peer cache serving ----------------------------------------------

// With Config.PeerCache enabled, a replica serves its own L1 under the
// store wire contract (GET/PUT /cache/{key}), so a fleet can use its
// members as each other's L2 without any shared infrastructure — each
// peer is just an HTTPStore base URL. Keys cross the wire in versioned
// form; a key carrying a different build's version prefix answers 404,
// which is the mixed-version guard at the peer boundary.

// peerKey strips this build's version prefix from a wire key, ok false
// when the key belongs to a different key-format version.
func (s *Server) peerKey(wire string) (string, bool) {
	return strings.CutPrefix(wire, s.cfg.StoreVersion+"-")
}

// handlePeerGet serves one L1 entry to a peer replica (GET and HEAD).
// Lookups bypass the hit/miss counters — peer traffic must not skew
// this replica's own cache statistics.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.peerKey(r.PathValue("key"))
	if !ok {
		http.Error(w, "version mismatch", http.StatusNotFound)
		return
	}
	body, ok := s.cache.Peek(key)
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Write(body)
}

// handlePeerPut accepts one entry pushed by a peer replica into this
// replica's L1. The blob is an immutable fact under its content
// address, so the write-once contract holds: 201 on first store, 200
// when the entry already exists, 400 when admitResult refuses the
// body.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	key, ok := s.peerKey(r.PathValue("key"))
	if !ok {
		http.Error(w, "version mismatch", http.StatusNotFound)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if s.cache.Contains(key) {
		w.WriteHeader(http.StatusOK)
		return
	}
	if !s.cache.admitStored(key, body) {
		http.Error(w, "body is not a result for this key", http.StatusBadRequest)
		return
	}
	s.cache.Put(key, body)
	w.WriteHeader(http.StatusCreated)
}

// handlePeerStats serves this replica's cache size under the store
// wire contract's /stats shape.
func (s *Server) handlePeerStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// Byte totals are not tracked per L1 entry; blobs alone size the peer.
	json.NewEncoder(w).Encode(store.Stats{Blobs: int64(s.cache.Len())})
}
