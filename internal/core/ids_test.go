package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"bagpipe/internal/tensor"
)

// tableOracle is the Go map an IDTable must agree with: id → slot, and the
// slots handed out and freed.
type tableOracle struct {
	t      *testing.T
	tab    IDTable
	slotOf map[uint64]int32
	held   map[int32]bool // slots in use
	peak   int
}

func newTableOracle(t *testing.T) *tableOracle {
	return &tableOracle{t: t, slotOf: make(map[uint64]int32), held: make(map[int32]bool)}
}

func (o *tableOracle) put(id uint64) {
	o.t.Helper()
	s, added := o.tab.Put(id)
	if want, ok := o.slotOf[id]; ok {
		if added || s != want {
			o.t.Fatalf("Put(%d) = %d, added %v; it holds slot %d", id, s, added, want)
		}
		return
	}
	if !added || s < 0 || o.held[s] {
		o.t.Fatalf("Put(%d) = %d, added %v; slot free %v", id, s, added, !o.held[s])
	}
	o.slotOf[id], o.held[s] = s, true
	o.peak = max(o.peak, len(o.slotOf))
}

func (o *tableOracle) del(id uint64) {
	o.t.Helper()
	o.tab.Delete(id)
	if s, ok := o.tab.Get(id); ok {
		o.t.Fatalf("Get(%d) = %d after its Delete", id, s)
	}
	delete(o.held, o.slotOf[id])
	delete(o.slotOf, id)
}

// check compares every held id and a few absent ones with the map, and
// bounds the slot numbers and the array by the peak live count.
func (o *tableOracle) check(absent ...uint64) {
	o.t.Helper()
	if o.tab.n != len(o.slotOf) {
		o.t.Fatalf("%d ids held, map holds %d", o.tab.n, len(o.slotOf))
	}
	for id, want := range o.slotOf {
		if s, ok := o.tab.Get(id); !ok || s != want {
			o.t.Fatalf("Get(%d) = %d, %v; want %d", id, s, ok, want)
		}
	}
	for _, id := range absent {
		if _, held := o.slotOf[id]; !held {
			if s, ok := o.tab.Get(id); ok {
				o.t.Fatalf("Get(%d) = %d for an absent id", id, s)
			}
		}
	}
	if len(o.tab.ids) > o.peak {
		o.t.Fatalf("%d slots handed out for a peak of %d ids", len(o.tab.ids), o.peak)
	}
	if n := len(o.tab.ents); n > minIDTable && 3*n >= 8*o.peak {
		o.t.Fatalf("%d entries for a peak of %d ids", n, o.peak)
	}
	// Every held slot reads its id back, and no other slot reads one.
	held := 0
	for s := int32(0); int(s) <= o.tab.Slots(); s++ {
		id, ok := o.tab.ID(s)
		if ok != o.held[s] || ok && o.slotOf[id] != s {
			o.t.Fatalf("ID(%d) = %d, %v; slot held %v", s, id, ok, o.held[s])
		}
		if ok {
			held++
		}
	}
	if held != o.tab.Len() || held != len(o.slotOf) {
		o.t.Fatalf("%d slots read an id, Len %d, map holds %d", held, o.tab.Len(), len(o.slotOf))
	}
}

// sameHome returns n ids whose home entry in a table of size entries is h.
func sameHome(n, size, h int) []uint64 {
	probe := IDTable{shift: uint(32 - bits.TrailingZeros(uint(size)))}
	var ids []uint64
	for id := uint64(1); len(ids) < n; id++ {
		if probe.home(tag(id)) == h {
			ids = append(ids, id)
		}
	}
	return ids
}

func TestIDTableMatchesMap(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, vocab := range []uint64{8, 100, 5000} {
		o := newTableOracle(t)
		for step := 0; step < 20000; step++ {
			id := rng.Uint64() % vocab
			if _, held := o.slotOf[id]; held && rng.Uint64()%2 == 0 {
				o.del(id)
			} else {
				o.put(id)
			}
			if step%997 == 0 {
				o.check(id, id+1, vocab+id)
			}
		}
		for id := range o.slotOf {
			o.del(id)
		}
		o.check(0, 1, 2)
	}
}

// TestIDTableProbeRuns forces ids into one probe run, homed at the array's
// first, middle and last entry (the last run wraps past the end), until the
// table grows in the middle of the run and rehashes it: at three quarters
// load, the growth point the IDTable doc comment's 8/3 array bound rests
// on. Deleting from the front, the middle and the end of a run must shift
// the rest back without losing an id.
func TestIDTableProbeRuns(t *testing.T) {
	const grow = minIDTable / 4 * 3 // ids a minIDTable array holds before it grows
	for _, h := range []int{0, minIDTable/2 - 1, minIDTable - 1} {
		ids := sameHome(grow+1, minIDTable, h)
		o := newTableOracle(t)
		for i, id := range ids {
			o.put(id)
			if want := minIDTable << (i / grow); len(o.tab.ents) != want {
				t.Fatalf("home %d: %d ids in %d entries, want %d", h, i+1, len(o.tab.ents), want)
			}
			o.check(ids...)
		}
		// Add four more ids homed at the grown array's last entry, so their
		// run wraps past its end, then delete in an order that opens holes
		// at the runs' fronts, middles and ends.
		var more []uint64
		for _, id := range sameHome(2*len(ids), 2*minIDTable, 2*minIDTable-1) {
			if _, held := o.slotOf[id]; !held && len(more) < 4 {
				more = append(more, id)
			}
		}
		for _, id := range more {
			o.put(id)
		}
		o.check(more...)
		for _, k := range []int{0, 3, 2, 1} {
			o.del(more[k])
			o.check(more...)
		}
		for _, k := range []int{0, 12, 3, 1, 9, 6, 2, 11, 5, 4, 10, 7, 8} {
			o.del(ids[k])
			o.check(ids...)
		}
		if o.tab.n != 0 {
			t.Fatalf("home %d: %d ids left", h, o.tab.n)
		}
	}
}

// TestIDTableGrowAtHalf: a table told to grow at half load doubles its
// array once its live count passes half the length, and keeps doing so
// after a Reset; a default table waits for three quarters. Either way it
// holds every id it was given.
func TestIDTableGrowAtHalf(t *testing.T) {
	var half, full IDTable
	half.GrowAtHalf()
	for i := 1; i <= 4*minIDTable; i++ {
		id := uint64(i) * 7919
		half.Put(id)
		full.Put(id)
		if want := minIDTable << bits.Len(uint((i-1)/(minIDTable/2))); len(half.ents) != want {
			t.Fatalf("half-load table: %d ids in %d entries, want %d", i, len(half.ents), want)
		}
		if want := minIDTable << bits.Len(uint((i-1)/(minIDTable/4*3))); len(full.ents) != want {
			t.Fatalf("default table: %d ids in %d entries, want %d", i, len(full.ents), want)
		}
	}
	for i := 1; i <= 4*minIDTable; i++ {
		if s, ok := half.Get(uint64(i) * 7919); !ok || s != int32(i-1) {
			t.Fatalf("half-load table lost id %d (slot %d, held %v)", i, s, ok)
		}
	}
	half.Reset()
	n := len(half.ents)
	for i := 0; i < n/2; i++ {
		half.Put(uint64(i))
	}
	if len(half.ents) != n {
		t.Fatalf("refilled to half of %d entries, the array grew to %d", n, len(half.ents))
	}
	if half.Put(uint64(n)); len(half.ents) != 2*n {
		t.Fatalf("refilled past half of %d entries, the array is %d", n, len(half.ents))
	}
}

// TestIDTableResetRestartsSlots: after a Reset the table holds nothing,
// hands out slots 0, 1, 2, … in insertion order and, refilled to the same
// size, allocates nothing — the per-iteration row table's contract.
func TestIDTableResetRestartsSlots(t *testing.T) {
	var tab IDTable
	fill := func(base uint64) {
		tab.Reset()
		for k := uint64(0); k < 500; k++ {
			if s, added := tab.Put(base + 7*k); !added || s != int32(k) {
				t.Fatalf("Put #%d after Reset = slot %d, added %v", k, s, added)
			}
		}
	}
	fill(0)
	tab.Delete(14) // a freed slot must not survive the Reset either
	fill(1 << 40)
	if _, ok := tab.Get(7); ok || tab.Len() != 500 || tab.Slots() != 500 {
		t.Fatalf("after Reset: id 7 still held %v, Len %d, Slots %d", ok, tab.Len(), tab.Slots())
	}
	if a := testing.AllocsPerRun(20, func() { fill(1 << 41) }); a != 0 {
		t.Fatalf("%v allocations per refill once warm", a)
	}
}

// TestIDTableRecyclesSlots pins the bound the users rely on: slots come
// back through Delete, so a table whose live count stops growing hands out
// no new slot and stops allocating.
func TestIDTableRecyclesSlots(t *testing.T) {
	var tab IDTable
	window := func(base uint64) {
		for id := base; id < base+300; id++ {
			tab.Put(id)
		}
		for id := base; id < base+300; id++ {
			tab.Delete(id)
		}
	}
	window(0)
	slots := len(tab.ids)
	if a := testing.AllocsPerRun(20, func() { window(1000) }); a != 0 {
		t.Fatalf("%v allocations per window once warm", a)
	}
	if len(tab.ids) != slots || slots != 300 {
		t.Fatalf("%d slots handed out after the first window, %d after more", slots, len(tab.ids))
	}
}

func TestIDTableDeleteAbsentPanics(t *testing.T) {
	for _, held := range [][]uint64{nil, {1, 2, 3}, sameHome(7, minIDTable, minIDTable-1)} {
		var tab IDTable
		for _, id := range held {
			tab.Put(id)
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "id 99999") {
					t.Fatalf("holding %v: Delete(99999) recovered %q, want a panic naming the id", held, msg)
				}
			}()
			tab.Delete(99999)
		}()
	}
}

func TestSortByIDStableAscending(t *testing.T) {
	type rec struct {
		id  uint64
		pos int
	}
	rng := tensor.NewRNG(11)
	var buf []rec
	for _, c := range []struct {
		n     int
		vocab uint64
	}{{0, 1}, {1, 5}, {2, 1}, {50, 4}, {1000, 1 << 11}, {3000, 337_600}, {3000, 1 << 40}} {
		a := make([]rec, c.n)
		var top uint64
		for k := range a {
			a[k] = rec{rng.Uint64() % c.vocab, k}
			top |= a[k].id
		}
		want := slices.Clone(a)
		slices.SortStableFunc(want, func(x, y rec) int { return cmp.Compare(x.id, y.id) })
		var got []rec
		got, buf = SortByID(a, buf, top, func(r *rec) uint64 { return r.id })
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d vocab=%d: not the stable ascending order", c.n, c.vocab)
		}
		if len(got) > 0 && len(buf) > 0 && &got[0] == &buf[0] {
			t.Fatalf("n=%d: sorted and spare share an array", c.n)
		}
	}
}
