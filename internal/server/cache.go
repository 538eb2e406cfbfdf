package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/store"
)

// Cache is the content-addressed result cache: key (Program.CacheKey)
// → the exact serialized response bytes that answered the first
// request, so every hit is byte-identical to the miss that filled it.
//
// Layout: a fixed set of shards, each an independent mutex + LRU list,
// so concurrent lookups on different keys rarely contend; the shard is
// the key's first byte (the key is a hex SHA-256, uniformly
// distributed by construction). An optional disk-spill directory makes
// warm results survive restarts: every Put also writes a
// checksummed file, and an in-memory miss consults the directory
// before reporting a miss. Spill entries are verified on load — a
// corrupted file (detected via SHA-256, exercised through the
// faultinject.ServerCacheLoad seam) is quarantined (removed) and
// treated as a miss, never served. An entry that verifies must still
// pass admit before it is served.
type Cache struct {
	shards   [cacheShards]cacheShard
	perShard int
	spillDir string

	// admit decides whether a body read back from outside this
	// process may enter memory (nil admits every body); the server
	// installs admitResult. rejected counts its refusals.
	admit func(key string, body []byte) bool

	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	spillHits    atomic.Int64
	spillCorrupt atomic.Int64
	spillSwept   atomic.Int64
	rejected     atomic.Int64
}

const cacheShards = 16

type cacheShard struct {
	mu    sync.Mutex
	order *list.List               // front = most recent; values are *cacheEntry
	byKey map[string]*list.Element // key → element in order
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewCache builds a cache holding at most entries results in memory
// (minimum one per shard), spilling to spillDir when non-empty (the
// directory is created if missing).
func NewCache(entries int, spillDir string) (*Cache, error) {
	per := entries / cacheShards
	if per < 1 {
		per = 1
	}
	c := &Cache{perShard: per, spillDir: spillDir}
	for i := range c.shards {
		c.shards[i].order = list.New()
		c.shards[i].byKey = make(map[string]*list.Element)
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("cache spill dir: %w", err)
		}
		// A crash between CreateTemp and Rename leaves tmp-* orphans
		// that no future write ever reclaims; sweep them at boot so the
		// directory cannot accrete litter across restarts.
		c.spillSwept.Store(int64(store.SweepTemps(spillDir)))
	}
	return c, nil
}

func (c *Cache) shard(key string) *cacheShard {
	if key == "" {
		return &c.shards[0]
	}
	return &c.shards[key[0]%cacheShards]
}

// Get returns the stored response for key, consulting memory first and
// the spill directory second (a spill hit repopulates memory). The
// returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.order.MoveToFront(el)
		body := el.Value.(*cacheEntry).body
		s.mu.Unlock()
		c.hits.Add(1)
		return body, true
	}
	s.mu.Unlock()

	if body, ok := c.loadSpill(key); ok {
		c.spillHits.Add(1)
		c.putMemory(key, body)
		return body, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores the response bytes for key in memory and, when a spill
// directory is configured, on disk. The caller must not mutate body
// afterwards.
func (c *Cache) Put(key string, body []byte) {
	c.putMemory(key, body)
	c.writeSpill(key, body)
}

func (c *Cache) putMemory(key string, body []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		// Same key, same content by construction; just refresh recency.
		s.order.MoveToFront(el)
		return
	}
	s.byKey[key] = s.order.PushFront(&cacheEntry{key: key, body: body})
	for s.order.Len() > c.perShard {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Peek returns the stored response for key without touching the
// hit/miss counters or LRU recency: the peer-serving path, where a
// remote replica's lookups must not skew this replica's own cache
// statistics or working set. Spill entries are consulted but not
// promoted into memory.
func (c *Cache) Peek(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		body := el.Value.(*cacheEntry).body
		s.mu.Unlock()
		return body, true
	}
	s.mu.Unlock()
	return c.loadSpill(key)
}

// Contains reports whether key is present, with Peek's non-counting
// semantics.
func (c *Cache) Contains(key string) bool {
	_, ok := c.Peek(key)
	return ok
}

// Len returns the in-memory entry count across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Metrics freezes the cache counters into the /metrics wire type.
func (c *Cache) Metrics() pdce.CacheMetrics {
	m := pdce.CacheMetrics{
		Entries:      c.Len(),
		Capacity:     c.perShard * cacheShards,
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		SpillHits:    c.spillHits.Load(),
		SpillCorrupt: c.spillCorrupt.Load(),
		SpillSwept:   c.spillSwept.Load(),
		Rejected:     c.rejected.Load(),
	}
	if lookups := m.Hits + m.SpillHits + m.Misses; lookups > 0 {
		m.HitRate = float64(m.Hits+m.SpillHits) / float64(lookups)
	}
	return m
}

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
	c.rejected.Add(1)
	return false
}

func (c *Cache) quarantine(path string) {
	c.spillCorrupt.Add(1)
	os.Remove(path)
}
