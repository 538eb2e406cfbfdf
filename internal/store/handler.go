package store

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// MaxBlobBytes caps PUT bodies on the blob wire, on pdce-blobd and on
// a -peer-cache replica alike. Cached optimize responses are tens of
// kilobytes; the cap only exists so a confused or hostile client
// cannot stream gigabytes into the store.
const MaxBlobBytes = 16 << 20

// ReadBlob reads a PUT body of at most MaxBlobBytes. When the read
// fails it answers the request itself — 413 beyond the cap, 400 for
// any other read error — and reports ok false.
func ReadBlob(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBlobBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "reading body: "+err.Error(), status)
		return nil, false
	}
	return body, true
}

// Handler serves a Backend over the blob wire contract (see HTTPStore
// for the method table). cmd/pdce-blobd mounts it as its whole
// surface; tests mount it on httptest servers to exercise HTTPStore
// against every backend.
func Handler(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !ValidKey(key) {
			http.Error(w, "invalid key", http.StatusBadRequest)
			return
		}
		body, err := b.Get(key)
		switch {
		case errors.Is(err, ErrNotFound):
			http.NotFound(w, r)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(body)
		}
	})
	mux.HandleFunc("PUT /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !ValidKey(key) {
			http.Error(w, "invalid key", http.StatusBadRequest)
			return
		}
		body, ok := ReadBlob(w, r)
		if !ok {
			return
		}
		created, err := b.Put(key, body)
		switch {
		case err != nil:
			http.Error(w, err.Error(), http.StatusInsufficientStorage)
		case created:
			w.WriteHeader(http.StatusCreated)
		default:
			w.WriteHeader(http.StatusOK)
		}
	})
	mux.HandleFunc("DELETE /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !ValidKey(key) {
			http.Error(w, "invalid key", http.StatusBadRequest)
			return
		}
		if err := b.Delete(key); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		s, err := b.Stats()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s)
	})
	return mux
}
