package core

import (
	"fmt"
	"sort"
)

// Entry is one cached embedding row with its oracle-assigned TTL.
type Entry struct {
	Row   []float32
	TTL   int  // last iteration that uses this row; evicted right after
	Dirty bool // updated since fetch; must be written back on eviction
}

// Eviction is a row leaving the cache that must be written back to the
// embedding servers (Bagpipe write-back happens on eviction, in the
// background cache-maintenance thread).
type Eviction struct {
	ID  uint64
	Row []float32
}

// Cache is the reference oracle-driven TTL cache: insertion and eviction
// are driven entirely by Oracle Cacher decisions — there is no reactive
// policy — which is what makes it a Belady-style perfect cache. No engine
// uses it (the LRPP trainers keep their partitions as slot records, in
// package train); it is the cache the benchmark harness's per-operation
// replay and the oracle tests drive. The oracle guarantees the training
// path and the maintenance path touch disjoint IDs in any window, so no
// per-entry locking is needed (§4 of the paper, "Overlapping cache
// management with training"); Cache is therefore *not* internally
// synchronized.
type Cache struct {
	Dim int

	entries map[uint64]*Entry
	// freeEntries recycles Entry records across insert/evict cycles so the
	// steady-state fill→train→evict loop stops allocating one Entry per
	// insert. Entries are only ever handled under the cache owner's
	// synchronization (the cache itself is not internally synchronized), so
	// a plain slice suffices. Callers must not retain an *Entry across the
	// eviction of its id — after Remove/EvictExpired the record may be
	// reissued for a different row.
	freeEntries []*Entry
	peak        int
	hits        int64
	misses      int64
	evicted     int64
}

// NewCache returns an empty cache for width-dim rows.
func NewCache(dim int) *Cache {
	return &Cache{Dim: dim, entries: make(map[uint64]*Entry)}
}

// Insert adds (or replaces) a row with the given TTL. The row is stored by
// reference; the caller must not reuse the slice.
func (c *Cache) Insert(id uint64, row []float32, ttl int) {
	if len(row) != c.Dim {
		panic(fmt.Sprintf("core: cache insert row len %d != dim %d", len(row), c.Dim))
	}
	var e *Entry
	if n := len(c.freeEntries); n > 0 {
		e = c.freeEntries[n-1]
		c.freeEntries[n-1] = nil
		c.freeEntries = c.freeEntries[:n-1]
	} else {
		e = new(Entry)
	}
	e.Row, e.TTL, e.Dirty = row, ttl, false
	c.entries[id] = e
	if len(c.entries) > c.peak {
		c.peak = len(c.entries)
	}
}

// release recycles an evicted entry after its Row reference has been
// extracted.
func (c *Cache) release(e *Entry) {
	e.Row = nil
	c.freeEntries = append(c.freeEntries, e)
}

// Get returns the live entry for id. The second result reports presence;
// callers record hits/misses through it.
func (c *Cache) Get(id uint64) (*Entry, bool) {
	e, ok := c.entries[id]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// Peek is Get without touching the hit/miss counters.
func (c *Cache) Peek(id uint64) (*Entry, bool) {
	e, ok := c.entries[id]
	return e, ok
}

// UpdateTTL extends the lifetime of a cached row (the oracle's
// TTLUpdateRequests). It is a no-op if the row is absent.
func (c *Cache) UpdateTTL(id uint64, ttl int) {
	if e, ok := c.entries[id]; ok {
		e.TTL = ttl
	}
}

// EvictExpired removes every entry whose TTL is <= iter and returns the
// dirty ones for write-back, sorted by ID for deterministic write order.
func (c *Cache) EvictExpired(iter int) []Eviction {
	var out []Eviction
	for id, e := range c.entries {
		if e.TTL <= iter {
			if e.Dirty {
				out = append(out, Eviction{ID: id, Row: e.Row})
			}
			delete(c.entries, id)
			c.release(e)
			c.evicted++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Remove evicts one row immediately, returning its write-back if dirty.
// LRPP partitions evict per id as each row's last synchronization merge
// completes, rather than sweeping by TTL.
func (c *Cache) Remove(id uint64) (Eviction, bool) {
	e, ok := c.entries[id]
	if !ok {
		return Eviction{}, false
	}
	delete(c.entries, id)
	c.evicted++
	row, dirty := e.Row, e.Dirty
	c.release(e)
	if !dirty {
		return Eviction{}, false
	}
	return Eviction{ID: id, Row: row}, true
}

// Len returns the current number of cached rows.
func (c *Cache) Len() int { return len(c.entries) }

// PeakRows returns the high-water mark of cached rows.
func (c *Cache) PeakRows() int { return c.peak }

// SizeBytes returns the current cache footprint at 4 bytes per element.
func (c *Cache) SizeBytes() int64 { return int64(len(c.entries)) * int64(c.Dim) * 4 }

// PeakSizeBytes returns the peak cache footprint at 4 bytes per element.
func (c *Cache) PeakSizeBytes() int64 { return int64(c.peak) * int64(c.Dim) * 4 }

// HitRate returns hits/(hits+misses) over the cache's lifetime.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Counters returns (hits, misses, evictions).
func (c *Cache) Counters() (hits, misses, evicted int64) {
	return c.hits, c.misses, c.evicted
}

// IDs returns the cached IDs, sorted (checkpointing and tests).
func (c *Cache) IDs() []uint64 {
	ids := make([]uint64, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
