package core

import (
	"fmt"
	"math/bits"
)

// IDTable maps embedding ids to dense slot numbers, the indices of a slab
// its user keeps beside it: the Oracle Cacher's per-id state, each
// trainer's partition of cached rows and its per-iteration row table, and
// each embedding-table shard's rows. Put hands a new id the most recently
// freed slot, or the next one never handed out; Delete frees the id's slot.
// Slot numbers are therefore bounded by the peak number of ids held at
// once, and so is the slab. ID reads a slot's id back, so a user can walk
// its slab in slot order without listing the ids.
//
// The table is open-addressed with linear probing over a power-of-two
// array of 8-byte entries, each a 32-bit hash tag and a slot; the ids
// themselves sit in a slot-indexed array, read only on a tag match, so a
// miss probes the entry array alone and a rehash reads no id. (Entries
// holding the id itself, 16 bytes each, measured about 12 % slower per
// oracle decision at the benchmark's uniform-key shape.) Deletion shifts
// the rest of the probe run back instead of leaving a tombstone: the users
// delete every id once per residency, so tombstones would fill the array.
// The array doubles only when the live count passes three quarters of its
// length, so every probe run ends at an empty entry and the array stays
// below 8/3 times the peak live count. (At half, an embedding shard's
// table outgrew the Go map it replaced.) A user that probes far more often
// than it holds ids may lower the bound to half (GrowAtHalf): the oracle,
// which probes every id of every window batch, ran its uniform-key
// decision 5–16 % slower in paired runs at three quarters. A user whose
// live count stops growing stops allocating:
//
//   - the oracle holds the ids of its window, so its table is bounded by
//     one window's distinct ids (ℒ batches' worth);
//   - a trainer holds the rows registered in its partition, so its table is
//     bounded by the partition's peak occupancy;
//   - an embedding shard holds its materialized rows.
//
// The zero value is an empty table. It is not synchronized; concurrent
// Get, ID, Len and Slots calls are safe while no Put, Delete or Reset runs.
type IDTable struct {
	ents  []idEnt  // len is 0 or a power of two
	ids   []uint64 // ids[s] is slot s's id; a freed slot keeps its last one
	shift uint     // 32 − log2(len(ents)): a tag's top bits index ents
	n     int      // ids held
	free  []int32  // freed slots, reused last in, first out
	half  bool     // grow past half the array's length instead of three quarters
}

// idEnt is one table entry: s is the slot plus one, 0 marking the entry
// empty, and tag is the id's 32-bit hash, so a probe compares ids only on
// a tag match and a rehash needs no id at all.
type idEnt struct {
	tag uint32
	s   int32
}

// minIDTable is the array length of a table's first Put.
const minIDTable = 16

// tag hashes id to 32 bits: Fibonacci hashing spreads the runs of
// consecutive ids the generator produces across the array.
func tag(id uint64) uint32 { return uint32((id * 0x9E3779B97F4A7C15) >> 32) }

// home is the preferred entry of an id with tag h.
func (t *IDTable) home(h uint32) int { return int(h >> t.shift) }

// find returns the entry holding id, or the empty entry ending its probe
// run.
func (t *IDTable) find(id uint64) int {
	mask := len(t.ents) - 1
	h := tag(id)
	i := t.home(h)
	for e := t.ents[i]; e.s != 0 && (e.tag != h || t.ids[e.s-1] != id); e = t.ents[i] {
		i = (i + 1) & mask
	}
	return i
}

// Get returns id's slot.
func (t *IDTable) Get(id uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	e := t.ents[t.find(id)]
	return e.s - 1, e.s != 0
}

// Put returns id's slot, giving the id one when the table holds none for
// it; added reports the latter. A new id gets the most recently freed slot,
// else the slot after every one handed out so far: one past the end of the
// user's slab, which the user then appends.
func (t *IDTable) Put(id uint64) (s int32, added bool) {
	if t.ents == nil {
		t.resize(minIDTable)
	}
	i := t.find(id)
	if e := t.ents[i]; e.s != 0 {
		return e.s - 1, false
	}
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s = int32(len(t.ids))
		t.ids = append(t.ids, 0)
	}
	t.ids[s] = id
	t.ents[i] = idEnt{tag(id), s + 1}
	if t.n++; t.n > t.limit() {
		t.resize(2 * len(t.ents))
	}
	return s, true
}

// GrowAtHalf makes the table double once its live count passes half the
// array's length rather than three quarters: shorter probe runs for twice
// the entry array.
func (t *IDTable) GrowAtHalf() { t.half = true }

// limit is the live count the array holds before it doubles.
func (t *IDTable) limit() int {
	if t.half {
		return len(t.ents) / 2
	}
	return len(t.ents) / 4 * 3
}

// Delete removes id and frees its slot. Deleting an id the table does not
// hold panics: each user deletes an id exactly once per residency, so an
// absent one is a broken caller.
func (t *IDTable) Delete(id uint64) {
	i := 0
	if t.n > 0 {
		i = t.find(id)
	}
	if t.n == 0 || t.ents[i].s == 0 {
		panic(fmt.Sprintf("core: IDTable.Delete of id %d, which it does not hold", id))
	}
	e := t.ents[i]
	// Shift back every later entry of the run that may move into the hole:
	// one whose home is not cyclically inside (hole, j].
	mask := len(t.ents) - 1
	for j := (i + 1) & mask; t.ents[j].s != 0; j = (j + 1) & mask {
		if (j-t.home(t.ents[j].tag))&mask >= (j-i)&mask {
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.ents[i] = idEnt{}
	t.n--
	t.free = append(t.free, e.s-1)
}

// ID returns the id slot s holds, and whether it holds one: a freed slot,
// or one at or past Slots, holds none. A freed slot keeps its last id, so
// ID probes for it: the slot is held exactly when the table maps that id
// to it. Liveness thus costs Put and Delete nothing, and a walk one probe
// per slot.
func (t *IDTable) ID(s int32) (uint64, bool) {
	if int(s) >= len(t.ids) {
		return 0, false
	}
	id := t.ids[s]
	return id, t.ents[t.find(id)].s == s+1
}

// Len returns how many ids the table holds.
func (t *IDTable) Len() int { return t.n }

// Slots returns how many slots the table has handed out: every held slot
// is below it.
func (t *IDTable) Slots() int { return len(t.ids) }

// Bytes returns the bytes the table's arrays hold, capacity included.
func (t *IDTable) Bytes() int {
	return 8*cap(t.ents) + 8*cap(t.ids) + 4*cap(t.free)
}

// Reset empties the table and keeps its arrays, so a table refilled to the
// same size allocates nothing. Slots restart at 0: until a Delete, the
// k-th id Put after a Reset gets slot k.
func (t *IDTable) Reset() {
	clear(t.ents)
	t.ids, t.free = t.ids[:0], t.free[:0]
	t.n = 0
}

// resize rehashes every entry into a new array of length n.
func (t *IDTable) resize(n int) {
	old := t.ents
	t.ents = make([]idEnt, n)
	t.shift = uint(32 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, e := range old {
		if e.s != 0 {
			i := t.home(e.tag)
			for t.ents[i].s != 0 {
				i = (i + 1) & mask
			}
			t.ents[i] = e
		}
	}
}

// radixBits is SortByID's widest digit: ids below 2^22 — 4.2M rows, twelve
// times the benchmark's scaled Criteo tables — sort in two passes.
const radixBits = 11

// SortByID sorts a ascending by id(&a[k]) with a stable least-significant-
// digit radix sort over the significant bits of the largest id, which the
// caller passes as any value with the same highest set bit (the OR of the
// ids will do). Each pass moves the elements between a and buf, grown to
// len(a) when shorter, so nothing is copied back: sorted is whichever
// array the last pass wrote, and spare is the other, for the caller to keep
// as the next call's buf.
func SortByID[T any](a, buf []T, maxID uint64, id func(*T) uint64) (sorted, spare []T) {
	sig := bits.Len64(maxID)
	if len(a) < 2 || sig == 0 {
		return a, buf
	}
	passes := (sig + radixBits - 1) / radixBits
	width := uint((sig + passes - 1) / passes)
	if cap(buf) < len(a) {
		buf = make([]T, len(a))
	}
	buf = buf[:len(a)]
	var counts [1 << radixBits]int32
	mask := uint64(1)<<width - 1
	for shift := uint(0); shift < uint(sig); shift += width {
		c := counts[:1<<width]
		clear(c)
		for k := range a {
			c[id(&a[k])>>shift&mask]++
		}
		sum := int32(0)
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for k := range a {
			d := id(&a[k]) >> shift & mask
			buf[c[d]] = a[k]
			c[d]++
		}
		a, buf = buf, a
	}
	return a, buf
}
