package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pdce"
	"pdce/internal/obs"
	"pdce/internal/server"
	"pdce/internal/store"
)

// drainServer flushes in-flight work including async L2 publishes.
func drainServer(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// optimizeOnce runs one request and returns its key, body, and cache
// header.
func optimizeOnce(t *testing.T, base string) (key string, body []byte, state string) {
	t.Helper()
	status, body, state := rawOptimize(t, base, "name=demo", demoSource)
	if status != http.StatusOK {
		t.Fatalf("optimize: status %d: %s", status, body)
	}
	var resp pdce.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Key, body, state
}

// TestStoreL2Backfill is the fleet-warmth property the subsystem
// exists for: a result solved by one replica is served by a freshly
// booted replica sharing the store — from the store, byte-identical,
// with no solver work.
func TestStoreL2Backfill(t *testing.T) {
	shared := store.NewMemStore()

	a, tsA, _ := startServer(t, server.Config{Store: shared})
	_, first, state := optimizeOnce(t, tsA.URL)
	if state != string(pdce.CacheMiss) {
		t.Fatalf("cold request: cache %q, want miss", state)
	}
	drainServer(t, a) // flush the async publish

	b, tsB, _ := startServer(t, server.Config{Store: shared})
	_, second, state := optimizeOnce(t, tsB.URL)
	if state != string(pdce.CacheHit) {
		t.Fatalf("restarted replica: cache %q, want hit from L2", state)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("L2 hit is not byte-identical:\nfirst:  %s\nsecond: %s", first, second)
	}
	if got := b.Stats().Optimizes(); got != 0 {
		t.Errorf("restarted replica ran the optimizer %d times, want 0", got)
	}
	if got := b.StoreStats().L2Hits(); got != 1 {
		t.Errorf("l2 hits = %d, want 1", got)
	}

	// The third request on the same replica is a pure L1 hit: the L2
	// fetch backfilled memory.
	_, _, state = optimizeOnce(t, tsB.URL)
	if state != string(pdce.CacheHit) || b.StoreStats().L2Hits() != 1 {
		t.Errorf("backfill did not stick: cache %q, l2 hits %d", state, b.StoreStats().L2Hits())
	}

	// The store section reaches both /metrics wire formats.
	resp, err := http.Get(tsB.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"pdce_store_l2_hits 1", "pdce_store_blobs 1"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prom exposition is missing %q", want)
		}
	}
}

// fleetPass boots four replicas, each on its own backend from mk (nil
// mk = no L2), sends one pass over sources through a Pool with 16
// concurrent callers, then drains and closes the fleet — the
// scheduler's kill, after which only the store survives. It returns
// each program's response bytes and the fleet's solve and L2-hit
// counts.
func fleetPass(t *testing.T, sources []string, mk func() store.Backend) (bodies [][]byte, solves, l2Hits int64) {
	t.Helper()
	const replicas, clients = 4, 16
	var servers []*server.Server
	var fronts []*httptest.Server
	var urls []string
	for i := 0; i < replicas; i++ {
		cfg := server.Config{MaxInFlight: clients, MaxQueue: 4 * clients}
		if mk != nil {
			cfg.Store = mk()
		}
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, s)
		fronts = append(fronts, ts)
		urls = append(urls, ts.URL)
	}
	p, err := pdce.NewPool(urls, pdce.PoolOptions{ProbeInterval: -1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bodies = make([][]byte, len(sources))
	sem := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			resp, _, err := p.Optimize(context.Background(), fmt.Sprintf("fleet-%02d", i), src, pdce.RequestOptions{})
			if err != nil {
				t.Errorf("program %d: %v", i, err)
				return
			}
			bodies[i], _ = json.Marshal(resp)
		}()
	}
	wg.Wait()
	for i, s := range servers {
		drainServer(t, s) // flushes the async L2 publishes
		fronts[i].Close()
		solves += s.Stats().Optimizes()
		l2Hits += s.StoreStats().L2Hits()
	}
	return bodies, solves, l2Hits
}

// TestStoreFleetRestart is the fleet drill the store exists for: a
// four-replica fleet cold-solves a corpus, is drained and killed, and
// is rescheduled on empty L1s over the same store. Determinism
// (Theorem 3.7) makes every replica's solve of a key the same bytes,
// so the rescheduled fleet serves its whole first pass from L2 without
// solving. Without a store it re-solves everything, to the same bytes.
func TestStoreFleetRestart(t *testing.T) {
	sources := make([]string, 24)
	for i := range sources {
		sources[i] = pdce.Generate(pdce.GenParams{Seed: int64(i), Stmts: 96}).Format()
	}
	arms := []struct {
		name string
		mk   func(t *testing.T) func() store.Backend
	}{
		{"none", func(*testing.T) func() store.Backend { return nil }},
		{"dir", func(t *testing.T) func() store.Backend {
			root := t.TempDir()
			return func() store.Backend {
				b, err := store.NewDirStore(root)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
		}},
		{"http", func(t *testing.T) func() store.Backend {
			ds, err := store.NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			blobd := httptest.NewServer(store.Handler(ds)) // in-process pdce-blobd
			t.Cleanup(blobd.Close)
			return func() store.Backend { return store.NewHTTPStore(blobd.URL, blobd.Client()) }
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			mk := arm.mk(t)
			cold, solves, _ := fleetPass(t, sources, mk)
			if solves != int64(len(sources)) {
				t.Fatalf("cold fleet solved %d times for %d programs", solves, len(sources))
			}
			warm, solves, l2Hits := fleetPass(t, sources, mk)
			for i := range cold {
				if !bytes.Equal(cold[i], warm[i]) {
					t.Fatalf("program %d: the rescheduled fleet served different bytes:\ncold: %s\nwarm: %s", i, cold[i], warm[i])
				}
			}
			want, wantHits := int64(0), int64(len(sources))
			if mk == nil {
				want, wantHits = int64(len(sources)), 0
			}
			if solves != want || l2Hits != wantHits {
				t.Fatalf("rescheduled fleet: %d re-solves and %d L2 hits for %d programs, want %d and %d",
					solves, l2Hits, len(sources), want, wantHits)
			}
		})
	}
}

// TestStoreLeaseLoserFetches pins the cluster singleflight's loser
// path: a replica that loses the solve lease serves the winner's
// published result as a dedup instead of re-solving.
func TestStoreLeaseLoserFetches(t *testing.T) {
	shared := store.NewMemStore()

	// Learn the key and canonical body from a throwaway replica.
	a, tsA, _ := startServer(t, server.Config{Store: shared})
	key, body, _ := optimizeOnce(t, tsA.URL)
	drainServer(t, a)
	vkey := store.VersionedKey(pdce.CacheKeyVersion(), key)
	if err := shared.Delete(vkey); err != nil {
		t.Fatal(err)
	}

	// An "external replica" wins the lease and holds it while the
	// replica under test arrives cold.
	winner := store.NewLease(shared, "external-winner", time.Minute, nil)
	if won, err := winner.Acquire(vkey); err != nil || !won {
		t.Fatalf("external Acquire = %v, %v", won, err)
	}

	b, tsB, _ := startServer(t, server.Config{Store: shared, LeaseTTL: time.Second})
	done := make(chan []byte, 1)
	go func() {
		_, got, state := optimizeOnce(t, tsB.URL)
		if state != string(pdce.CacheDedup) {
			t.Errorf("loser replica: cache %q, want dedup", state)
		}
		done <- got
	}()

	// The winner publishes mid-poll; the loser must pick it up.
	time.Sleep(100 * time.Millisecond)
	if _, err := shared.Put(vkey, body); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if !bytes.Equal(got, body) {
			t.Fatalf("fetched result differs from the winner's:\n%s\nvs\n%s", got, body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loser never fetched the winner's result")
	}
	if snap := b.StoreStats().Snapshot(obs.StoreGauges{}); snap.LeaseFetches != 1 || snap.LeaseLosses != 1 {
		t.Errorf("lease counters = %+v, want 1 loss, 1 fetch", snap)
	}
	if got := b.Stats().Optimizes(); got != 0 {
		t.Errorf("loser ran the optimizer %d times, want 0", got)
	}
}

// TestStoreLeaseExpiryTakeover pins the crashed-winner path: the
// winner never publishes, its lease expires, and the waiting replica
// takes the solve over locally — an acked request is never lost to a
// dead peer.
func TestStoreLeaseExpiryTakeover(t *testing.T) {
	shared := store.NewMemStore()

	a, tsA, _ := startServer(t, server.Config{Store: shared})
	key, _, _ := optimizeOnce(t, tsA.URL)
	drainServer(t, a)
	vkey := store.VersionedKey(pdce.CacheKeyVersion(), key)
	if err := shared.Delete(vkey); err != nil {
		t.Fatal(err)
	}

	// The "winner" grabs the lease with a tiny TTL and crashes: no
	// publish, no release.
	dead := store.NewLease(shared, "crashed-winner", 30*time.Millisecond, nil)
	if won, err := dead.Acquire(vkey); err != nil || !won {
		t.Fatalf("dead Acquire = %v, %v", won, err)
	}

	b, tsB, _ := startServer(t, server.Config{Store: shared, LeaseTTL: time.Second})
	_, _, state := optimizeOnce(t, tsB.URL)
	if state != string(pdce.CacheMiss) {
		t.Fatalf("takeover request: cache %q, want miss (local solve)", state)
	}
	if got := b.Stats().Optimizes(); got != 1 {
		t.Errorf("takeover ran the optimizer %d times, want 1", got)
	}
	snap := b.StoreStats().Snapshot(obs.StoreGauges{})
	if snap.LeaseExpiries == 0 || snap.LeaseWins == 0 {
		t.Errorf("takeover not counted: %+v", snap)
	}
}

// downBackend fails every operation — a dead blobd or an unmounted
// shared filesystem.
type downBackend struct{}

var errDown = errors.New("backend down")

func (downBackend) Put(string, []byte) (bool, error) { return false, errDown }
func (downBackend) Get(string) ([]byte, error)       { return nil, errDown }
func (downBackend) Has(string) (bool, error)         { return false, errDown }
func (downBackend) Delete(string) error              { return errDown }
func (downBackend) Stats() (store.Stats, error)      { return store.Stats{}, errDown }

// TestStoreOutageDegradesToLocal is the availability property: with
// the backend hard down, every request still succeeds locally and the
// failures are counted, never surfaced to callers.
func TestStoreOutageDegradesToLocal(t *testing.T) {
	s, ts, _ := startServer(t, server.Config{Store: downBackend{}})
	_, _, state := optimizeOnce(t, ts.URL)
	if state != string(pdce.CacheMiss) {
		t.Fatalf("outage request: cache %q, want miss", state)
	}
	_, _, state = optimizeOnce(t, ts.URL)
	if state != string(pdce.CacheHit) {
		t.Fatalf("repeat under outage: cache %q, want L1 hit", state)
	}
	drainServer(t, s)
	snap := s.StoreStats().Snapshot(obs.StoreGauges{})
	if snap.GetFailures == 0 || snap.LeaseErrors == 0 || snap.PutFailures == 0 {
		t.Errorf("outage not counted: %+v", snap)
	}
	if snap.Puts != 0 || snap.L2Hits != 0 {
		t.Errorf("phantom successes under outage: %+v", snap)
	}
}

// TestPeerCacheServing pins the peer surface: a replica with PeerCache
// serves its own L1 under the store wire contract, so a sibling can
// mount it as an HTTPStore — and a key carrying a different build's
// version prefix answers 404, the mixed-version guard.
func TestPeerCacheServing(t *testing.T) {
	s, ts, _ := startServer(t, server.Config{PeerCache: true})
	key, body, _ := optimizeOnce(t, ts.URL)
	before := s.Cache().Metrics()

	peer := store.NewHTTPStore(ts.URL, nil)
	vkey := store.VersionedKey(pdce.CacheKeyVersion(), key)
	got, err := peer.Get(vkey)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("peer Get = %v (%d bytes), want the replica's L1 entry", err, len(got))
	}
	if ok, err := peer.Has(vkey); err != nil || !ok {
		t.Fatalf("peer Has = %v, %v", ok, err)
	}

	// Mixed-version guard: the same raw key under a stale version
	// prefix does not exist on this replica.
	if _, err := peer.Get("pdce-cache-v0-" + key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("stale-version Get: err = %v, want ErrNotFound", err)
	}

	// A pushed entry lands in L1 under the raw key (write-once: the
	// second push reports existing). The body must be a result for that
	// key, so the push re-addresses this replica's own result.
	var resp pdce.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Key = strings.Repeat("cd", 32)
	pushed, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	extra := store.VersionedKey(pdce.CacheKeyVersion(), resp.Key)
	if created, err := peer.Put(extra, pushed); err != nil || !created {
		t.Fatalf("peer Put = %v, %v", created, err)
	}
	if created, err := peer.Put(extra, pushed); err != nil || created {
		t.Fatalf("second peer Put = %v, %v, want false nil", created, err)
	}
	if !s.Cache().Contains(strings.Repeat("cd", 32)) {
		t.Fatal("pushed entry did not land in L1")
	}

	// Peer traffic must not skew the replica's own cache statistics.
	after := s.Cache().Metrics()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("peer traffic moved hit/miss counters: %+v -> %+v", before, after)
	}

	if st, err := peer.Stats(); err != nil || st.Blobs == 0 {
		t.Errorf("peer Stats = %+v, %v, want nonzero blobs", st, err)
	}
}

// foreignBody is a stored body that answers no request: its key is
// wrong and its program does not parse.
var foreignBody = []byte(`{"key":"wrong","program":"garbage"}`)

// TestStoredForeignBodyRejected plants foreignBody under a request's
// key in every place a replica reads results back from: each L2
// backend (mem, dir, an in-process blobd, a -peer-cache sibling), the
// spill directory (behind a valid checksum line), and the store a lease
// loser polls. Each time the request must solve locally and answer the
// right bytes, the body must never enter L1, and cache.rejected must
// count it once.
func TestStoredForeignBodyRejected(t *testing.T) {
	_, tsRef, _ := startServer(t, server.Config{})
	key, want, _ := optimizeOnce(t, tsRef.URL)
	vkey := store.VersionedKey(pdce.CacheKeyVersion(), key)

	// check sends the request to s and requires a local solve.
	check := func(t *testing.T, s *server.Server, base string) {
		t.Helper()
		_, got, state := optimizeOnce(t, base)
		if state != string(pdce.CacheMiss) {
			t.Errorf("cache %q, want miss (a local solve)", state)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("served %s\nwant %s", got, want)
		}
		if n := s.Stats().Optimizes(); n != 1 {
			t.Errorf("optimizer ran %d times, want 1", n)
		}
		if n := s.Cache().Metrics().Rejected; n != 1 {
			t.Errorf("cache.rejected = %d, want 1", n)
		}
		resp, err := http.Get(base + "/metrics?format=prom")
		if err != nil {
			t.Fatal(err)
		}
		prom, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(prom), "pdce_cache_rejected 1\n") {
			t.Error("/metrics does not report pdce_cache_rejected 1")
		}
		// L1 now holds the local solve: the repeat is a hit on it.
		if _, again, state := optimizeOnce(t, base); state != string(pdce.CacheHit) || !bytes.Equal(again, want) {
			t.Errorf("repeat: cache %q, body %s", state, again)
		}
		drainServer(t, s)
	}
	plant := func(t *testing.T, b store.Backend) store.Backend {
		t.Helper()
		if _, err := b.Put(vkey, foreignBody); err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("mem", func(t *testing.T) {
		s, ts, _ := startServer(t, server.Config{Store: plant(t, store.NewMemStore())})
		check(t, s, ts.URL)
	})
	t.Run("dir", func(t *testing.T) {
		d, err := store.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s, ts, _ := startServer(t, server.Config{Store: plant(t, d)})
		check(t, s, ts.URL)
	})
	t.Run("blobd", func(t *testing.T) {
		blobd := httptest.NewServer(store.Handler(plant(t, store.NewMemStore())))
		t.Cleanup(blobd.Close)
		s, ts, _ := startServer(t, server.Config{Store: store.NewHTTPStore(blobd.URL, nil)})
		check(t, s, ts.URL)
	})
	t.Run("peer", func(t *testing.T) {
		sib, tsSib, _ := startServer(t, server.Config{PeerCache: true})
		peer := store.NewHTTPStore(tsSib.URL, nil)
		// The sibling refuses the body on its PUT surface...
		if _, err := peer.Put(vkey, foreignBody); err == nil {
			t.Error("sibling accepted a foreign push")
		}
		if sib.Cache().Contains(key) || sib.Cache().Metrics().Rejected != 1 {
			t.Errorf("foreign push reached the sibling's L1 (rejected = %d)", sib.Cache().Metrics().Rejected)
		}
		// ...so put it in its L1 directly, as a faulty sibling holds it.
		sib.Cache().Put(key, foreignBody)
		s, ts, _ := startServer(t, server.Config{Store: peer})
		check(t, s, ts.URL)
	})
	t.Run("spill", func(t *testing.T) {
		dir := t.TempDir()
		sum := sha256.Sum256(foreignBody)
		entry := append([]byte(hex.EncodeToString(sum[:])+"\n"), foreignBody...)
		if err := os.WriteFile(filepath.Join(dir, key+".entry"), entry, 0o644); err != nil {
			t.Fatal(err)
		}
		s, ts, _ := startServer(t, server.Config{SpillDir: dir})
		check(t, s, ts.URL)
	})
	t.Run("lease-poll", func(t *testing.T) {
		// An external replica holds the solve lease and publishes the
		// foreign body while this replica polls for its result.
		shared := store.NewMemStore()
		winner := store.NewLease(shared, "external-winner", time.Minute, nil)
		if won, err := winner.Acquire(vkey); err != nil || !won {
			t.Fatalf("external Acquire = %v, %v", won, err)
		}
		s, ts, _ := startServer(t, server.Config{Store: shared, LeaseTTL: time.Second})
		go func() {
			time.Sleep(100 * time.Millisecond)
			shared.Put(vkey, foreignBody)
		}()
		check(t, s, ts.URL)
	})
}

// TestSpillOrphanSweep is the crash-litter regression: tmp-* files a
// crashed writer left in the spill directory are removed at boot and
// counted, while real entries survive.
func TestSpillOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"tmp-111.entry", "tmp-222.entry"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A first server writes a real spill entry, then "crashes".
	a, tsA, _ := startServer(t, server.Config{SpillDir: dir})
	key, body, _ := optimizeOnce(t, tsA.URL)
	if got := a.Cache().Metrics().SpillSwept; got != 2 {
		t.Fatalf("boot sweep removed %d orphans, want 2", got)
	}
	for _, name := range []string{"tmp-111.entry", "tmp-222.entry"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the boot sweep", name)
		}
	}

	// The restarted server sweeps nothing further and still serves the
	// spilled result.
	b, tsB, _ := startServer(t, server.Config{SpillDir: dir})
	if got := b.Cache().Metrics().SpillSwept; got != 0 {
		t.Fatalf("clean boot swept %d files, want 0", got)
	}
	_, second, state := rawOptimize(t, tsB.URL, "name=demo", demoSource)
	if state != string(pdce.CacheHit) || !bytes.Equal(body, second) {
		t.Fatalf("spilled result not served after restart: cache %q", state)
	}
	_ = key
}
