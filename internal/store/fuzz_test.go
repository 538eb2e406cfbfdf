package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdce/internal/store"
)

// blobFiles lists every regular file under dir, failing the test for
// any that lies outside root.
func blobFiles(t *testing.T, dir, root string) []string {
	t.Helper()
	var files []string
	filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if !strings.HasPrefix(p, root+string(filepath.Separator)) {
			t.Fatalf("file %s lies outside the store root %s", p, root)
		}
		files = append(files, p)
		return nil
	})
	return files
}

// FuzzDirStoreBlob overwrites a real blob file with arbitrary bytes,
// as a bad disk or a hostile writer on the shared mount might. Get must
// then either serve a body the file encodes exactly (its SHA-256 hex, a
// newline, the body) or report ErrNotFound, remove the file, and let a
// following Put and Get round-trip. A key ValidKey rejects must never
// write a file, and every file lies under the store root.
func FuzzDirStoreBlob(f *testing.F) {
	const key = "pdce-cache-v2-fuzz"
	body := []byte("precious result bytes")
	sum := sha256.Sum256(body)
	blob := append([]byte(hex.EncodeToString(sum[:])+"\n"), body...)
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(key, blob)
	f.Add(key, blob[:20]) // cut inside the header
	f.Add(key, flipped)
	f.Add(key, []byte{})
	f.Add("..", blob)
	f.Add("a/b", blob)
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		dir := t.TempDir()
		root := filepath.Join(dir, "store")
		d, err := store.NewDirStore(root)
		if err != nil {
			t.Fatal(err)
		}
		if !store.ValidKey(key) {
			if _, err := d.Put(key, data); err == nil {
				t.Fatalf("Put accepted invalid key %q", key)
			}
			if _, err := d.Get(key); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("Get of invalid key %q: %v", key, err)
			}
			if files := blobFiles(t, dir, root); len(files) != 0 {
				t.Fatalf("invalid key %q wrote %v", key, files)
			}
			return
		}
		if _, err := d.Put(key, []byte("seed body")); err != nil {
			t.Fatal(err)
		}
		files := blobFiles(t, dir, root)
		if len(files) != 1 {
			t.Fatalf("one Put left files %v", files)
		}
		path := files[0]
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := d.Get(key)
		switch {
		case err == nil:
			sum := sha256.Sum256(got)
			want := append([]byte(hex.EncodeToString(sum[:])+"\n"), got...)
			if !bytes.Equal(data, want) {
				t.Fatalf("served %q from a file that does not encode it: %q", got, data)
			}
		case errors.Is(err, store.ErrNotFound):
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("rejected blob file was not removed: %v", err)
			}
			fresh := []byte("fresh body")
			if _, err := d.Put(key, fresh); err != nil {
				t.Fatal(err)
			}
			if again, err := d.Get(key); err != nil || !bytes.Equal(again, fresh) {
				t.Fatalf("round trip after quarantine: %q, %v", again, err)
			}
		default:
			t.Fatalf("Get: %v", err)
		}
		blobFiles(t, dir, root)
	})
}
