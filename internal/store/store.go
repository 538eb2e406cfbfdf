// Package store is the shared persistence tier behind pdced's
// content-addressed result cache: a pluggable L2 blob store that a
// whole fleet of replicas reads and writes, plus the cluster-wide
// singleflight lease built on top of it (lease.go).
//
// The paper's determinism result (Theorem 3.7) is what makes a shared
// store safe at all: a cache entry is a pure function of its key, so
// blobs are immutable facts — two replicas racing to write the same
// key write the same bytes, and write-once semantics make the race
// benign. The Backend interface is deliberately tiny (Put/Get/Has/
// Delete/Stats over opaque blobs) so an implementation is a few
// hundred lines: MemStore for tests and the chaos harness, DirStore
// for a shared filesystem, HTTPStore for the pdce-blobd daemon or a
// sibling pdced's /cache surface.
//
// Every backend is an optimization, never a correctness dependency:
// the serving layer treats any backend error as a miss and solves
// locally, so a dead or slow store degrades the fleet to per-replica
// caching instead of failing requests.
package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
)

// ErrNotFound is returned by Get for a key with no stored blob.
var ErrNotFound = errors.New("store: blob not found")

// Stats sizes a backend's current contents. The json tags are the
// /stats wire shape served by Handler and decoded by HTTPStore.
type Stats struct {
	// Blobs is the stored blob count, Bytes their payload total.
	Blobs int64 `json:"blobs"`
	Bytes int64 `json:"bytes"`
}

// Backend is one shared blob store. Blobs are immutable and keyed by
// content address (Program.CacheKey, version-prefixed via
// VersionedKey), so implementations provide write-once semantics:
// a Put on an existing key keeps the existing blob and reports
// created false. That single guarantee is what the lease layer's
// compare-and-set rides on, and what makes racing writers benign.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put stores body under key unless the key already exists, in
	// which case the stored blob is kept untouched. created reports
	// whether this call created the blob.
	Put(key string, body []byte) (created bool, err error)
	// Get returns the blob stored under key, ErrNotFound when absent.
	// The returned slice is the caller's to keep; implementations must
	// not retain or mutate it.
	Get(key string) ([]byte, error)
	// Has reports whether key holds a blob, without reading it.
	Has(key string) (bool, error)
	// Delete removes key's blob; deleting an absent key is not an
	// error. It exists for lease expiry, operator cleanup, and the
	// serving path's removal of a blob it refused as a result (one
	// that names another key or holds no parseable program) — a
	// result that passes that check is never deleted.
	Delete(key string) error
	// Stats sizes the store's current contents.
	Stats() (Stats, error)
}

// VersionedKey namespaces a content address under a cache-key
// generation (pdce.CacheKeyVersion). A fleet mixing optimizer
// versions — mid-rollout, or rolled half back — shares one store
// without ever serving version X's result for version Y's request:
// the generations address disjoint key spaces, and the old
// generation's blobs age out instead of poisoning the new one.
func VersionedKey(version, key string) string {
	return version + "-" + key
}

// maxKeyLen bounds keys well under common filename limits, leaving
// room for DirStore's ".blob" suffix and temp-file decoration.
const maxKeyLen = 200

// ValidKey reports whether key is safe for every backend: non-empty,
// bounded, and drawn from a filesystem- and URL-safe alphabet
// (letters, digits, '.', '_', '-'). Keys reaching the store are
// server-derived (hex digests plus version prefixes), so a rejection
// means a programming error or a crafted peer request — both are
// refused rather than escaped.
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > maxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	// "." and ".." are valid by alphabet but are path navigation.
	return key != "." && key != ".."
}

// tempPrefix marks in-progress writes in directory-backed stores (and
// the server's spill directory, which shares the same convention): a
// blob is staged as tmp-* and atomically renamed or linked into
// place, so any surviving tmp-* file is an orphan from a crash
// between create and rename.
const tempPrefix = "tmp-"

// SweepTemps removes orphaned temp files (tmp-*) directly inside dir,
// returning how many were removed. It is called at boot — by DirStore
// on its root and by the server's spill cache on its directory —
// where nothing can still be mid-write, so everything matching the
// prefix is crash litter. A missing directory sweeps zero.
func SweepTemps(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), tempPrefix) {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			removed++
		}
	}
	return removed
}

// Open builds a backend from a -store flag value:
//
//	off            no shared store (nil backend)
//	mem            process-local in-memory store (tests, demos)
//	dir:/path      DirStore on a shared filesystem directory
//	http://host    HTTPStore against pdce-blobd or a peer pdced
//	https://host   same, over TLS
func Open(spec string) (Backend, error) {
	switch {
	case spec == "" || spec == "off":
		return nil, nil
	case spec == "mem":
		return NewMemStore(), nil
	case strings.HasPrefix(spec, "dir:"):
		path := strings.TrimPrefix(spec, "dir:")
		if path == "" {
			return nil, errors.New("store: dir: form needs a path (dir:/var/cache/pdce-store)")
		}
		return NewDirStore(path)
	case strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://"):
		return NewHTTPStore(spec, nil), nil
	default:
		return nil, errors.New("store: unknown form " + spec + " (want off, mem, dir:/path, or http://host)")
	}
}
