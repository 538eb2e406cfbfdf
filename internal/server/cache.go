package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/obs"
	"pdce/internal/store"
)

// Cache is the content-addressed result cache: key (Program.CacheKey)
// → the exact serialized response bytes that answered the first
// request, so every hit is byte-identical to the miss that filled it.
//
// Memory is an lru (below), the same bounded map the request memo
// uses. An optional disk-spill directory makes warm results survive
// restarts: every Put also writes a checksummed file, and an in-memory
// miss consults the directory before reporting a miss. Spill entries are verified on load — a corrupted file
// (detected via SHA-256, exercised through the
// faultinject.ServerCacheLoad seam) is quarantined (removed) and
// treated as a miss, never served. An entry that verifies must still
// pass admit before it is served.
type Cache struct {
	// stats holds the counters; Metrics adds the gauges. It comes
	// first so that its Count fields are 64-bit aligned (obs.Count).
	stats pdce.CacheMetrics

	mem      *lru[[]byte]
	spillDir string

	// admit decides whether a body read back from outside this
	// process may enter memory (nil admits every body); the server
	// installs admitResult. stats.Rejected counts its refusals.
	admit func(key string, body []byte) bool
}

// NewCache builds a cache holding at most entries results in memory
// (minimum one per shard), spilling to spillDir when non-empty (the
// directory is created if missing).
func NewCache(entries int, spillDir string) (*Cache, error) {
	c := &Cache{mem: newLRU[[]byte](entries), spillDir: spillDir}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("cache spill dir: %w", err)
		}
		// A crash between CreateTemp and Rename leaves tmp-* orphans
		// that no future write ever reclaims; sweep them at boot so the
		// directory cannot accrete litter across restarts.
		c.stats.SpillSwept.Store(int64(store.SweepTemps(spillDir)))
	}
	return c, nil
}

// Get returns the stored response for key, consulting memory first and
// the spill directory second (a spill hit repopulates memory). The
// returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	if body, ok := c.mem.get(key, true); ok {
		c.stats.Hits.Add(1)
		return body, true
	}
	if body, ok := c.loadSpill(key); ok {
		c.stats.SpillHits.Add(1)
		c.putMemory(key, body)
		return body, true
	}
	c.stats.Misses.Add(1)
	return nil, false
}

// Put stores the response bytes for key in memory and, when a spill
// directory is configured, on disk. The caller must not mutate body
// afterwards.
func (c *Cache) Put(key string, body []byte) {
	c.putMemory(key, body)
	c.writeSpill(key, body)
}

// putMemory stores body under key; a key already held keeps its body
// (same key, same content by construction) and only refreshes recency.
func (c *Cache) putMemory(key string, body []byte) {
	c.stats.Evictions.Add(int64(c.mem.add(key, body)))
}

// Peek returns the stored response for key without touching the
// hit/miss counters or LRU recency: the peer-serving path, where a
// remote replica's lookups must not skew this replica's own cache
// statistics or working set. Spill entries are consulted but not
// promoted into memory.
func (c *Cache) Peek(key string) ([]byte, bool) {
	if body, ok := c.mem.get(key, false); ok {
		return body, true
	}
	return c.loadSpill(key)
}

// Contains reports whether key is present, with Peek's non-counting
// semantics.
func (c *Cache) Contains(key string) bool {
	_, ok := c.Peek(key)
	return ok
}

// Len returns the in-memory entry count across all shards.
func (c *Cache) Len() int { return c.mem.len() }

// Metrics freezes the cache counters into the /metrics wire type.
func (c *Cache) Metrics() pdce.CacheMetrics {
	m := obs.Freeze(&c.stats)
	m.Entries, m.Capacity = c.Len(), c.mem.capacity()
	if lookups := m.Hits + m.SpillHits + m.Misses; lookups > 0 {
		m.HitRate = float64(m.Hits+m.SpillHits) / float64(lookups)
	}
	return m
}

// --- sharded LRU ------------------------------------------------------

// lru is the bounded map under the result cache and the request memo:
// a fixed set of shards, each an independent mutex + LRU list, so
// concurrent lookups on different keys rarely contend. The shard is
// the key's first byte.
type lru[V any] struct {
	shards   [cacheShards]lruShard[V]
	perShard int
}

const cacheShards = 16

type lruShard[V any] struct {
	mu    sync.Mutex
	order *list.List               // front = most recent; values are *lruEntry[V]
	byKey map[string]*list.Element // key → element in order
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU builds an lru holding at most entries values (minimum one per
// shard).
func newLRU[V any](entries int) *lru[V] {
	l := &lru[V]{perShard: max(entries/cacheShards, 1)}
	for i := range l.shards {
		l.shards[i].order = list.New()
		l.shards[i].byKey = make(map[string]*list.Element)
	}
	return l
}

func (l *lru[V]) shard(key string) *lruShard[V] {
	if key == "" {
		return &l.shards[0]
	}
	return &l.shards[key[0]%cacheShards]
}

// get returns key's value; touch makes it the most recent.
func (l *lru[V]) get(key string, touch bool) (V, bool) {
	s := l.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	if touch {
		s.order.MoveToFront(el)
	}
	return el.Value.(*lruEntry[V]).val, true
}

// add stores v under key as the most recent entry and returns how many
// entries it evicted. A key already held keeps its value and only
// becomes the most recent.
func (l *lru[V]) add(key string, v V) (evicted int) {
	s := l.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		s.order.MoveToFront(el)
		return 0
	}
	s.byKey[key] = s.order.PushFront(&lruEntry[V]{key: key, val: v})
	for s.order.Len() > l.perShard {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.byKey, oldest.Value.(*lruEntry[V]).key)
		evicted++
	}
	return evicted
}

// len returns the entry count across all shards.
func (l *lru[V]) len() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// capacity is the most entries the lru holds.
func (l *lru[V]) capacity() int { return l.perShard * cacheShards }

// --- disk spill -------------------------------------------------------

// spillPath maps a key to its spill file. Keys are hex digests (the
// filesystem-safe alphabet), but an untrusted key from a crafted URL
// never reaches here — keys are always recomputed server-side.
func (c *Cache) spillPath(key string) string {
	return filepath.Join(c.spillDir, key+".entry")
}

// writeSpill persists one entry as "sha256-hex\n" + body, written to a
// temp file and renamed so readers never observe a partial write. A
// failed write degrades silently: the spill layer is an optimization,
// never a correctness dependency.
func (c *Cache) writeSpill(key string, body []byte) {
	if c.spillDir == "" {
		return
	}
	sum := sha256.Sum256(body)
	tmp, err := os.CreateTemp(c.spillDir, "tmp-*.entry")
	if err != nil {
		return
	}
	_, werr := fmt.Fprintf(tmp, "%s\n", hex.EncodeToString(sum[:]))
	if werr == nil {
		_, werr = tmp.Write(body)
	}
	if cerr := tmp.Close(); werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.spillPath(key)); err != nil {
		os.Remove(tmp.Name())
	}
}

// loadSpill reads one entry back, verifying the embedded checksum. A
// corrupted or malformed file is quarantined (removed) and counted; it
// is never served.
func (c *Cache) loadSpill(key string) ([]byte, bool) {
	if c.spillDir == "" {
		return nil, false
	}
	path := c.spillPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	// The corruption seam: a test hook may flip bytes here, standing
	// in for bit rot or a torn write the rename could not prevent.
	faultinject.Fire(faultinject.ServerCacheLoad, &data)

	const sumLen = sha256.Size * 2
	if len(data) < sumLen+1 || data[sumLen] != '\n' {
		c.quarantine(path)
		return nil, false
	}
	body := data[sumLen+1:]
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != string(data[:sumLen]) {
		c.quarantine(path)
		return nil, false
	}
	if !c.admitStored(key, body) {
		return nil, false
	}
	return body, true
}

// admitStored applies admit to a body read back from storage under
// key, counting each refusal.
func (c *Cache) admitStored(key string, body []byte) bool {
	if c.admit == nil || c.admit(key, body) {
		return true
	}
	c.stats.Rejected.Add(1)
	return false
}

func (c *Cache) quarantine(path string) {
	c.stats.SpillCorrupt.Add(1)
	os.Remove(path)
}
