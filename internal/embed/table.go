// Package embed implements the embedding-table substrate: lazily
// materialized tables addressed by a flat global-ID keyspace, and the
// sharded Embedding Server component of Bagpipe's disaggregated
// architecture (§3.4), which acts as a sharded parameter server handling
// prefetch and write-back requests from trainers.
//
// Rows are initialized deterministically from their ID, so two servers
// built with the same seed hold identical logical state without ever
// materializing the full table — the property that lets this reproduction
// "store" Criteo-Terabyte's 882M-row tables while only ever allocating the
// rows a run touches, and that lets the sync-equivalence tests compare a
// distributed run against a single-process reference. A remote server is
// certified against a local baseline by digest (FingerprintPartIn), and
// only a partition whose digest differs is exported and compared row by
// row (DiffRows) — the mechanism behind `bagpipe -verify`.
//
// The package never touches the network itself: it exposes batched,
// shard-grouped Fetch/Write plus state-comparison primitives
// (Diff, Fingerprint, export), and internal/transport decides
// whether those calls cross a socket.
package embed

import (
	"fmt"
	"sync"

	"bagpipe/internal/core"
)

// rowInit derives the deterministic initial value of element col of row id.
// The paper's systems initialize embeddings uniformly in a small range;
// we use ±initScale.
func rowInit(seed, id uint64, col int, dim int, scale float32) float32 {
	h := seed ^ (id*0x9E3779B97F4A7C15 + uint64(col)*0xBF58476D1CE4E5B9)
	h ^= h >> 30
	h *= 0x94D049BB133111EB
	h ^= h >> 27
	// map to [-scale, scale)
	u := float32(h>>40) / float32(1<<24)
	return (u*2 - 1) * scale
}

// Table is one embedding table shard: a lazily materialized map from global
// embedding ID to its float32 row. Safe for concurrent use.
//
// Rows live in a slab: fixed-size chunks of slabChunkRows rows each, found
// through a pointer-free core.IDTable, so a materialized row costs no heap
// object of its own and the GC never scans the index. The id table owns
// slot reuse: a removed row's slot is handed to the next new row before
// the slab grows. Its slot-indexed ids let walk and sweep read the rows
// where they lie, one chunk per lock hold, without listing the ids.
//
// Each slot also carries a live-write mark, one bit per row in words
// allocated with their slab chunk: a live write (Set, SetMany) sets it, and
// a recovery write skips a marked row and leaves an unmarked one unmarked
// (see Server.WriteRecovery). Both run under mu, so the mark and the row
// it guards change together.
type Table struct {
	Dim       int
	Seed      uint64
	InitScale float32

	mu     sync.RWMutex
	index  core.IDTable         // id → slot
	chunks [][]float32          // slot s is chunks[s/slabChunkRows], row s%slabChunkRows
	marks  []*[markWords]uint64 // slot s's mark is bit s%64 of marks[s/slabChunkRows][s%slabChunkRows/64]
}

// slabChunkRows is the row count of one slab chunk: one allocation per
// 1024 materialized rows (64 KiB at dim 16), at most one partly used chunk
// per table. It is also the most rows a walk or sweep visits per lock
// hold.
const slabChunkRows = 1024

// markWords is the live-write mark words of one slab chunk.
const markWords = slabChunkRows / 64

// NewTable returns an empty lazily-initialized table.
func NewTable(dim int, seed uint64, initScale float32) *Table {
	if dim <= 0 {
		panic(fmt.Sprintf("embed: non-positive dim %d", dim))
	}
	return &Table{Dim: dim, Seed: seed, InitScale: initScale}
}

// row returns slot s's storage.
func (t *Table) row(s int32) []float32 {
	off := int(s%slabChunkRows) * t.Dim
	return t.chunks[s/slabChunkRows][off : off+t.Dim : off+t.Dim]
}

// lookup returns id's row, or nil when it is not materialized. Caller must
// hold mu.
func (t *Table) lookup(id uint64) []float32 {
	if s, ok := t.index.Get(id); ok {
		return t.row(s)
	}
	return nil
}

// store overwrites row id with src, giving it a slot if it has never been
// touched, and reports whether it did. A live write marks the row. A
// recovery write skips a marked row and clears the mark of a row it
// stores, so a slot that a removed row left marked starts unmarked when a
// recovery write reuses it. Caller must hold mu for writing.
func (t *Table) store(id uint64, src []float32, recovery bool) bool {
	if len(src) != t.Dim {
		panic(fmt.Sprintf("embed: store src len %d != dim %d", len(src), t.Dim))
	}
	s, added := t.index.Put(id)
	if int(s) >= len(t.chunks)*slabChunkRows {
		t.chunks = append(t.chunks, make([]float32, slabChunkRows*t.Dim))
		t.marks = append(t.marks, new([markWords]uint64))
	}
	w, bit := &t.marks[s/slabChunkRows][s%slabChunkRows/64], uint64(1)<<(s%64)
	switch {
	case !recovery:
		*w |= bit
	case !added && *w&bit != 0:
		return false
	default:
		*w &^= bit
	}
	copy(t.row(s), src)
	return true
}

// set stores one row under the write lock (see store).
func (t *Table) set(id uint64, src []float32, recovery bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.store(id, src, recovery)
}

// clearMarks clears every live-write mark (Server.BeginRecovery).
func (t *Table) clearMarks() {
	t.mu.Lock()
	for _, m := range t.marks {
		*m = [markWords]uint64{}
	}
	t.mu.Unlock()
}

// walk calls fn with every materialized row in slot order. It holds the
// read lock for one slab chunk at a time, so a writer waits behind at most
// slabChunkRows rows, and fn runs under it: fn must not keep row or call
// back into the table. A row held throughout the walk keeps its slot, so
// it is visited exactly once, with its value at the visit; a row added or
// removed meanwhile may be missed, and one removed and re-added may be
// visited twice. A walk racing writers is therefore not a snapshot; at
// quiescence it visits exactly the materialized set.
func (t *Table) walk(fn func(id uint64, row []float32)) {
	for lo := 0; ; lo += slabChunkRows {
		t.mu.RLock()
		hi := min(lo+slabChunkRows, t.index.Slots())
		for s := int32(lo); int(s) < hi; s++ {
			if id, ok := t.index.ID(s); ok {
				fn(id, t.row(s))
			}
		}
		t.mu.RUnlock()
		if hi < lo+slabChunkRows {
			return
		}
	}
}

// sweep removes every materialized row whose id drop reports, holding the
// write lock for one slab chunk at a time, and returns how many went.
func (t *Table) sweep(drop func(id uint64) bool) int {
	n := 0
	for lo := 0; ; lo += slabChunkRows {
		t.mu.Lock()
		hi := min(lo+slabChunkRows, t.index.Slots())
		for s := int32(lo); int(s) < hi; s++ {
			if id, ok := t.index.ID(s); ok && drop(id) {
				t.index.Delete(id)
				n++
			}
		}
		t.mu.Unlock()
		if hi < lo+slabChunkRows {
			return n
		}
	}
}

// initInto fills dst with row id's deterministic initial value without
// materializing it. rowInit is pure, so no lock is needed; a read that
// races a first write to the same row may return the init value, which is
// the row's logical pre-write state.
func (t *Table) initInto(id uint64, dst []float32) {
	for c := range dst {
		dst[c] = rowInit(t.Seed, id, c, t.Dim, t.InitScale)
	}
}

// Get copies the current value of row id into dst (len Dim). Reads never
// materialize: a miss computes the deterministic init value on the fly, so
// the materialized set stays exactly the written set — read-heavy serving
// load cannot grow server memory or perturb the tier fingerprint.
func (t *Table) Get(id uint64, dst []float32) {
	if len(dst) != t.Dim {
		panic(fmt.Sprintf("embed: Get dst len %d != dim %d", len(dst), t.Dim))
	}
	// The copy must happen under the lock: Set overwrites rows in place, and
	// with the serving path in the process a reader is no longer guaranteed
	// to be the row's owning trainer (which serializes its own fetches and
	// write-backs) — copying after unlock would tear the row.
	t.mu.RLock()
	if row := t.lookup(id); row != nil {
		copy(dst, row)
		t.mu.RUnlock()
		return
	}
	t.mu.RUnlock()
	t.initInto(id, dst)
}

// Set overwrites row id with src (a trainer write-back) and marks it.
func (t *Table) Set(id uint64, src []float32) { t.set(id, src, false) }

// GetMany copies rows ids[i] into dsts[i] for every i in idxs under a
// single lock acquisition. The index-list form lets the Server hand each
// shard its slice of a fetch without building per-shard copies of the
// request arrays — this is the hot path behind every oracle-driven prefetch.
// idxs is scratch to GetMany: it compacts the misses to the front of it,
// so a fetch of never-written rows allocates nothing.
func (t *Table) GetMany(ids []uint64, idxs []int, dsts [][]float32) {
	missing := 0
	t.mu.RLock()
	for _, i := range idxs {
		if len(dsts[i]) != t.Dim {
			t.mu.RUnlock()
			panic(fmt.Sprintf("embed: GetMany dst len %d != dim %d", len(dsts[i]), t.Dim))
		}
		if row := t.lookup(ids[i]); row != nil {
			copy(dsts[i], row)
		} else {
			idxs[missing] = i // at or behind the read position
			missing++
		}
	}
	t.mu.RUnlock()
	// Misses are computed lock-free from the init derivation rather than
	// materialized: fetches stay read-only on the table (see Get).
	for _, i := range idxs[:missing] {
		t.initInto(ids[i], dsts[i])
	}
}

// SetMany stores rows ids[i] from srcs[i] for every i in idxs under a
// single lock acquisition, as live or recovery writes (see store), and
// returns how many it stored; the index-list counterpart of GetMany for
// batched write-backs.
func (t *Table) SetMany(ids []uint64, idxs []int, srcs [][]float32, recovery bool) (stored int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, i := range idxs {
		if t.store(ids[i], srcs[i], recovery) {
			stored++
		}
	}
	return stored
}

// peek copies the current logical value of row id into dst without
// materializing it: untouched rows are computed from the deterministic init
// on the fly. Read-only counterpart of Get for state comparison.
func (t *Table) peek(id uint64, dst []float32) {
	if len(dst) != t.Dim {
		panic(fmt.Sprintf("embed: peek dst len %d != dim %d", len(dst), t.Dim))
	}
	t.mu.RLock()
	row := t.lookup(id)
	if row != nil {
		copy(dst, row)
	}
	t.mu.RUnlock()
	if row == nil {
		t.initInto(id, dst)
	}
}

// Remove drops row id from the materialized set, reporting whether it was
// materialized. The row's logical value reverts to its deterministic
// (seed, id) init — Remove is how a reshard sheds partitions that migrated
// away, not a way to zero a row.
func (t *Table) Remove(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.index.Get(id); !ok {
		return false
	}
	t.index.Delete(id)
	return true
}

// NumMaterialized returns how many rows have been touched.
func (t *Table) NumMaterialized() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.index.Len()
}

// footprint returns the table's row count, the bytes its slab chunks hold
// and the bytes its id table and live-write marks hold.
func (t *Table) footprint() (rows, slab, index int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.index.Len(), 4 * t.Dim * slabChunkRows * len(t.chunks), t.index.Bytes() + 8*markWords*len(t.marks)
}
