package runner

import (
	"container/list"
	"sync"
	"time"
)

// DefaultMemStoreBytes is the MemStore size bound when none is given.
const DefaultMemStoreBytes = 256 << 20

// MemStore is a size-bounded in-memory LRU store: the fast tier in
// front of disk and remote backends, and a self-contained store for
// processes that want cross-run reuse without touching disk. Both Get
// and Put refresh an entry's recency; once the byte bound is exceeded,
// least-recently-used entries are evicted (counted in Stats).
//
// Beside each entry's bytes the store keeps an opaque decoded value
// that only GetCell sets, after validating the bytes (see memoizer).
// The store never reads it; a Put that replaces the bytes drops it,
// and so does eviction, so it lives and dies with its entry. The byte
// bound counts envelope bytes only: a kept value adds its decoded size
// on top, uncharged (about three quarters of the envelope's bytes for
// a fig17 sim.Result, so a full tier holds up to ~1.75x its bound).
type MemStore struct {
	c tierCounters

	mu      sync.Mutex
	max     int64
	size    int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *memEntry
}

type memEntry struct {
	hash string
	data []byte
	memo *cellMemo // GetCell's decoded value of data; nil until set
}

// cellMemo is one decoded cell result kept beside its envelope bytes:
// the key and full fingerprint the bytes validated against, and the
// value they decoded to.
type cellMemo struct {
	key, fingerprint string
	value            any
}

// memoizer is implemented by stores that keep one decoded value per
// entry: MemStore, and Tiered through its first tier. GetCell is its
// only user. Both methods act only while hash's entry still holds
// data — the very slice, not merely equal bytes — so a value is never
// attached to, or served for, bytes it was not decoded from.
type memoizer interface {
	memo(hash string, data []byte) *cellMemo
	setMemo(hash string, data []byte, m *cellMemo)
}

// NewMemStore builds a store bounded to maxBytes of stored envelope
// bytes; maxBytes <= 0 means DefaultMemStoreBytes.
func NewMemStore(maxBytes int64) *MemStore {
	if maxBytes <= 0 {
		maxBytes = DefaultMemStoreBytes
	}
	return &MemStore{
		c:       tierCounters{name: "mem"},
		max:     maxBytes,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the envelope under hash, refreshing its recency.
func (m *MemStore) Get(hash string) (data []byte, ok bool, err error) {
	start := time.Now()
	defer func() { m.c.recordGet(start, ok, err) }()
	m.mu.Lock()
	defer m.mu.Unlock()
	el, found := m.entries[hash]
	if !found {
		return nil, false, nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memEntry).data, true, nil
}

// Put stores the envelope under hash, replacing any previous entry,
// then evicts least-recently-used entries until the bound holds again.
func (m *MemStore) Put(hash string, data []byte) (err error) {
	start := time.Now()
	defer func() { m.c.recordPut(start, err) }()
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, found := m.entries[hash]; found {
		e := el.Value.(*memEntry)
		m.size += int64(len(data)) - int64(len(e.data))
		e.data, e.memo = data, nil
		m.lru.MoveToFront(el)
	} else {
		m.entries[hash] = m.lru.PushFront(&memEntry{hash: hash, data: data})
		m.size += int64(len(data))
	}
	// An entry larger than the whole bound evicts everything including
	// itself: the store simply declines to hold it.
	for m.size > m.max && m.lru.Len() > 0 {
		oldest := m.lru.Back()
		e := oldest.Value.(*memEntry)
		m.lru.Remove(oldest)
		delete(m.entries, e.hash)
		m.size -= int64(len(e.data))
		m.c.evictions.Add(1)
	}
	return nil
}

// entryFor returns hash's entry when it holds data. The caller holds
// m.mu.
func (m *MemStore) entryFor(hash string, data []byte) *memEntry {
	el, found := m.entries[hash]
	if !found {
		return nil
	}
	e := el.Value.(*memEntry)
	if len(e.data) != len(data) || len(data) == 0 || &e.data[0] != &data[0] {
		return nil
	}
	return e
}

// memo returns the value GetCell attached to hash's entry, if the
// entry still holds data.
func (m *MemStore) memo(hash string, data []byte) *cellMemo {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entryFor(hash, data); e != nil {
		return e.memo
	}
	return nil
}

// setMemo attaches c to hash's entry if the entry still holds data.
func (m *MemStore) setMemo(hash string, data []byte, c *cellMemo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entryFor(hash, data); e != nil {
		e.memo = c
	}
}

// Locate names the backend in corrupt-entry warnings (see Locator).
func (m *MemStore) Locate(hash string) string { return "mem:" + hash }

// Stats returns the store's counters plus current occupancy.
func (m *MemStore) Stats() TierStats {
	st := m.c.snapshot()
	m.mu.Lock()
	st.Entries = int64(m.lru.Len())
	st.Bytes = m.size
	m.mu.Unlock()
	return st
}
