package server

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"unsafe"

	"pdce"
	"pdce/internal/obs"
)

// The request memo.
//
// A result is a pure function of (canonical program, options)
// (Theorem 3.7), and L1 is keyed on exactly that, so a hit would parse
// and re-render its body only to recompute a key computed before. The
// memo maps the digest of everything the request key depends on — the
// key version, the options fingerprint, explain, the lang and name
// query values and the body bytes — to the key the first parse of
// those bytes gave. It is exact because RequestOptions.Parse and Key
// are functions of exactly those inputs: a digest seen before names
// the key the parse would compute again. Canonical keys stay the cache
// key, so a reformatted body misses the memo, parses, and still hits
// L1.
//
// The memo is process-local (never spilled, published or sent to a
// peer), holds keys only for bodies that parsed (a failed parse still
// answers 400 every time), and is an lru bounded by
// Config.CacheEntries, like L1.

// memoKey digests one request for the memo. Each field but the body is
// length-prefixed, so distinct requests never hash the same bytes.
func memoKey(o pdce.RequestOptions, name, src string) string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, f := range [...]string{pdce.CacheKeyVersion(), o.Options().Fingerprint(), o.Explain, o.Lang, name} {
		h.Write(binary.AppendUvarint(n[:0], uint64(len(f))))
		io.WriteString(h, f)
	}
	// sha256's Hash has no WriteString, so io.WriteString would copy
	// the whole body; Write neither changes nor keeps its argument
	// (io.Writer), so the body's bytes are hashed in place.
	h.Write(unsafe.Slice(unsafe.StringData(src), len(src)))
	return string(h.Sum(nil))
}

// cacheLookup is one request resolved against L1.
type cacheLookup struct {
	key  string
	hit  bool
	body []byte        // the stored result on a hit
	prog *pdce.Program // the parsed program; nil on a hit the memo answered
}

// lookup resolves one request — program text src under name, with
// options o — to its cache key and looks that key up in L1, under a
// server.cache span when sp is non-nil. A request whose exact bytes
// parsed before takes its key from the memo and is parsed only if L1
// misses. Any other request is parsed (err is the parse error), keyed
// by o.Key, and remembered.
func (s *Server) lookup(src, name string, o pdce.RequestOptions, sp *obs.Span) (cacheLookup, error) {
	var l cacheLookup
	var err error
	var known bool
	mk := memoKey(o, name, src)
	if l.key, known = s.memo.get(mk, true); !known {
		if l.prog, err = o.Parse(name, src); err != nil {
			return l, err
		}
		l.key = o.Key(l.prog)
		s.memo.add(mk, l.key)
	}

	l.body, l.hit = s.cacheGet(l.key, sp)
	if !l.hit && l.prog == nil {
		// The memo named the key, but L1 no longer holds it: the
		// solve needs the program. These bytes parsed before.
		l.prog, err = o.Parse(name, src)
	}
	return l, err
}
