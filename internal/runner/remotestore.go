package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// StorePathPrefix is where the remote-store wire protocol lives on a
// serving daemon: GET/PUT {prefix}/{hash}, entry envelope bytes as the
// body. RemoteStore builds its URLs from it and StoreHandler serves
// it, so client and server cannot drift apart.
const StorePathPrefix = "/api/v1/store"

// maxStoreEntryBytes bounds one envelope on the wire; real entries are
// a few KB of JSON-encoded sim.Result.
const maxStoreEntryBytes = 32 << 20

// RemoteStore reads and writes cells on a pacramd cache origin over
// HTTP. It is the thin-client half of the store wire protocol: a miss
// is a 404, a hit is the entry's exact bytes, and every transport or
// server failure is a degradation the caller warns about and
// recomputes through — a CLI run pointed at an absent daemon still
// completes, just uncached.
type RemoteStore struct {
	base string
	hc   *http.Client
	c    tierCounters
}

// NewRemoteStore points a store at a daemon base URL (e.g.
// "http://localhost:8793").
func NewRemoteStore(base string) *RemoteStore {
	return &RemoteStore{
		base: strings.TrimRight(base, "/"),
		// Entries are small; a store op that takes this long is a
		// degradation worth surfacing, not worth waiting out.
		hc: &http.Client{Timeout: 30 * time.Second},
		c:  tierCounters{name: "remote"},
	}
}

func (r *RemoteStore) url(hash string) string {
	return r.base + StorePathPrefix + "/" + hash
}

// Locate returns the entry's URL (see Locator).
func (r *RemoteStore) Locate(hash string) string { return r.url(hash) }

// Get fetches the envelope under hash from the origin.
func (r *RemoteStore) Get(hash string) (data []byte, ok bool, err error) {
	start := time.Now()
	defer func() { r.c.recordGet(start, ok, err) }()
	resp, gerr := r.hc.Get(r.url(hash))
	if gerr != nil {
		return nil, false, fmt.Errorf("remote store: %w", gerr)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxStoreEntryBytes))
		if rerr != nil {
			return nil, false, fmt.Errorf("remote store: reading %s: %w", r.url(hash), rerr)
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("remote store: GET %s: %s", r.url(hash), resp.Status)
	}
}

// Put uploads the envelope under hash to the origin, populating it for
// every other client built from the same model.
func (r *RemoteStore) Put(hash string, data []byte) (err error) {
	start := time.Now()
	defer func() { r.c.recordPut(start, err) }()
	req, err := http.NewRequest(http.MethodPut, r.url(hash), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return fmt.Errorf("remote store: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated, http.StatusNoContent:
		return nil
	default:
		return fmt.Errorf("remote store: PUT %s: %s", r.url(hash), resp.Status)
	}
}

// Stats returns the client-side counters: hits and misses as the
// origin answered them, latency as this client observed it.
func (r *RemoteStore) Stats() TierStats { return r.c.snapshot() }

// validStoreHash gates hashes arriving over the wire: hashCell emits
// 40 lowercase hex characters, and rejecting anything else keeps
// arbitrary strings out of backend namespaces (and, for a disk
// backend, out of file paths).
func validStoreHash(hash string) bool {
	if len(hash) == 0 || len(hash) > 128 {
		return false
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// StoreHandler serves the remote-store wire protocol over any Store at
// StorePathPrefix — mounting it is all a daemon needs to double as a
// cache origin for other daemons and for CLI runs. PUT bodies must
// decode as a well-formed entry envelope; contents are not otherwise
// trusted, because every client re-validates key and fingerprint on
// load (GetCell).
func StoreHandler(s Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+StorePathPrefix+"/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if !validStoreHash(hash) {
			http.Error(w, "malformed store hash", http.StatusBadRequest)
			return
		}
		data, ok, err := s.Get(hash)
		if err != nil {
			http.Error(w, fmt.Sprintf("store get: %v", err), http.StatusBadGateway)
			return
		}
		if !ok {
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("PUT "+StorePathPrefix+"/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if !validStoreHash(hash) {
			http.Error(w, "malformed store hash", http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStoreEntryBytes))
		if err != nil {
			http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
			return
		}
		var e entry
		if json.Unmarshal(data, &e) != nil || e.Key == "" || e.Fingerprint == "" {
			http.Error(w, "body is not a store entry envelope", http.StatusUnprocessableEntity)
			return
		}
		if err := s.Put(hash, data); err != nil {
			http.Error(w, fmt.Sprintf("store put: %v", err), http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
