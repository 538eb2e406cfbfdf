package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdce/internal/store"
)

// backends enumerates every Backend implementation under one
// conformance suite, HTTPStore included (served by Handler over a
// DirStore, so the wire contract and the directory layout are tested
// together).
func backends(t *testing.T) map[string]store.Backend {
	t.Helper()
	dir, err := store.NewDirStore(filepath.Join(t.TempDir(), "dirstore"))
	if err != nil {
		t.Fatal(err)
	}
	httpDir, err := store.NewDirStore(filepath.Join(t.TempDir(), "blobd"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(store.Handler(httpDir))
	t.Cleanup(ts.Close)
	return map[string]store.Backend{
		"mem":  store.NewMemStore(),
		"dir":  dir,
		"http": store.NewHTTPStore(ts.URL, ts.Client()),
	}
}

// TestBackendConformance pins the Backend contract — write-once puts,
// get/has/delete agreement, stats — across every implementation.
func TestBackendConformance(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			key := "pdce-cache-v1-" + strings.Repeat("ab", 32)
			body := []byte("first writer's bytes")

			if _, err := b.Get(key); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("Get on empty store: err = %v, want ErrNotFound", err)
			}
			if ok, err := b.Has(key); err != nil || ok {
				t.Fatalf("Has on empty store = %v, %v", ok, err)
			}

			created, err := b.Put(key, body)
			if err != nil || !created {
				t.Fatalf("first Put: created=%v err=%v", created, err)
			}
			// Write-once: the second writer loses and the first bytes stay.
			created, err = b.Put(key, []byte("second writer's bytes"))
			if err != nil || created {
				t.Fatalf("second Put: created=%v err=%v, want false nil", created, err)
			}
			got, err := b.Get(key)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("Get = %q, %v; want first writer's bytes", got, err)
			}
			if ok, err := b.Has(key); err != nil || !ok {
				t.Fatalf("Has after Put = %v, %v", ok, err)
			}

			st, err := b.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Blobs != 1 || st.Bytes != int64(len(body)) {
				t.Fatalf("Stats = %+v, want 1 blob of %d bytes", st, len(body))
			}

			if err := b.Delete(key); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete(key); err != nil {
				t.Fatalf("Delete of absent key: %v", err)
			}
			if _, err := b.Get(key); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
			}
			if st, _ := b.Stats(); st.Blobs != 0 || st.Bytes != 0 {
				t.Fatalf("Stats after Delete = %+v, want empty", st)
			}

			// Invalid keys are refused, never escaped into paths or URLs.
			for _, bad := range []string{"", ".", "..", "a/b", "a b", strings.Repeat("x", 300)} {
				if _, err := b.Put(bad, body); err == nil {
					t.Errorf("Put(%q) accepted an invalid key", bad)
				}
				if _, err := b.Get(bad); !errors.Is(err, store.ErrNotFound) {
					t.Errorf("Get(%q): err = %v, want ErrNotFound", bad, err)
				}
			}
		})
	}
}

// TestDirStoreSurvivesReopen is the shared-filesystem property: a
// second DirStore (a rescheduled replica, or a different machine on
// the same mount) sees the first one's blobs and sizes them.
func TestDirStoreSurvivesReopen(t *testing.T) {
	root := t.TempDir()
	d1, err := store.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := d1.Put(fmt.Sprintf("pdce-cache-v1-key-%02d", i), []byte(strings.Repeat("x", 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := store.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blobs != 20 {
		t.Fatalf("reopened store sees %d blobs, want 20", st.Blobs)
	}
	body, err := d2.Get("pdce-cache-v1-key-07")
	if err != nil || len(body) != 107 {
		t.Fatalf("reopened Get = %d bytes, %v", len(body), err)
	}
}

// TestDirStoreQuarantinesCorruption flips bytes on disk and expects a
// miss plus removal, never a served corrupt blob.
func TestDirStoreQuarantinesCorruption(t *testing.T) {
	root := t.TempDir()
	d, err := store.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	key := "pdce-cache-v1-corrupt-me"
	if _, err := d.Put(key, []byte("precious result bytes")); err != nil {
		t.Fatal(err)
	}
	// Find the blob file and flip a payload byte.
	var path string
	filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".blob") {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatal("blob file not found")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("corrupt blob: err = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt blob was not quarantined")
	}
}

// TestSweepTemps pins the crash-litter sweep both directly and
// through NewDirStore's boot path.
func TestSweepTemps(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"tmp-123.blob", "tmp-zzz.entry", "keeper.blob"} {
		if err := os.WriteFile(filepath.Join(root, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	os.Mkdir(filepath.Join(root, "tmp-dir"), 0o755) // dirs are never swept
	if n := store.SweepTemps(root); n != 2 {
		t.Fatalf("SweepTemps removed %d files, want 2", n)
	}
	if _, err := os.Stat(filepath.Join(root, "keeper.blob")); err != nil {
		t.Fatal("sweep removed a non-temp file")
	}
	if _, err := os.Stat(filepath.Join(root, "tmp-dir")); err != nil {
		t.Fatal("sweep removed a directory")
	}

	// Boot path: a DirStore opening over crash litter removes it and
	// reports the count.
	orphan := filepath.Join(root, "tmp-orphan.blob")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := store.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if d.Swept() != 1 {
		t.Fatalf("NewDirStore swept %d, want 1", d.Swept())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan temp survived boot")
	}
}

// TestHandlerWire pins the HTTP status codes the wire contract
// promises (201 create, 200 idempotent re-put, 404 miss, 204 delete,
// 400 bad key) — the codes HTTPStore and peer replicas key off.
func TestHandlerWire(t *testing.T) {
	ts := httptest.NewServer(store.Handler(store.NewMemStore()))
	defer ts.Close()
	key := "pdce-cache-v1-wire-test"
	put := func(k string) int {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+k, strings.NewReader("blob"))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(key); code != http.StatusCreated {
		t.Fatalf("first PUT = %d, want 201", code)
	}
	if code := put(key); code != http.StatusOK {
		t.Fatalf("second PUT = %d, want 200", code)
	}
	// A key the alphabet refuses ('..' path navigation) must be
	// rejected, whether by the mux (redirect/404) or the handler (400).
	if code := put(".."); code < 300 {
		t.Fatalf("bad-key PUT = %d, want rejection", code)
	}
	resp, err := http.Get(ts.URL + "/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/cache/absent-key-0000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET absent = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/cache/"+key, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}
}

// TestHandlerBlobCap: a PUT one byte over MaxBlobBytes answers 413 and
// stores nothing; a PUT of exactly the cap is stored.
func TestHandlerBlobCap(t *testing.T) {
	mem := store.NewMemStore()
	ts := httptest.NewServer(store.Handler(mem))
	defer ts.Close()
	put := func(key string, n int) int {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+key, bytes.NewReader(make([]byte, n)))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("over-cap", store.MaxBlobBytes+1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("PUT of cap+1 bytes = %d, want 413", code)
	}
	if ok, err := mem.Has("over-cap"); err != nil || ok {
		t.Errorf("over-cap blob stored: Has = %v, %v", ok, err)
	}
	if code := put("at-cap", store.MaxBlobBytes); code != http.StatusCreated {
		t.Errorf("PUT of cap bytes = %d, want 201", code)
	}
}

// TestOpen pins the -store flag grammar.
func TestOpen(t *testing.T) {
	if b, err := store.Open("off"); b != nil || err != nil {
		t.Fatalf("off = %v, %v", b, err)
	}
	if b, err := store.Open(""); b != nil || err != nil {
		t.Fatalf("empty = %v, %v", b, err)
	}
	if b, err := store.Open("mem"); err != nil || b == nil {
		t.Fatalf("mem = %v, %v", b, err)
	}
	if b, err := store.Open("dir:" + t.TempDir()); err != nil || b == nil {
		t.Fatalf("dir = %v, %v", b, err)
	}
	if b, err := store.Open("http://localhost:1"); err != nil || b == nil {
		t.Fatalf("http = %v, %v", b, err)
	}
	for _, bad := range []string{"dir:", "ftp://x", "nonsense"} {
		if _, err := store.Open(bad); err == nil {
			t.Errorf("Open(%q) accepted an invalid spec", bad)
		}
	}
}
