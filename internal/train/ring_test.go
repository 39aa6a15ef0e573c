package train

import (
	"fmt"
	"strings"
	"testing"

	"bagpipe/internal/core"
	"bagpipe/internal/transport"
)

// mustPanic runs fn and fails unless it panics with a message containing
// every one of want.
func mustPanic(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		msg := fmt.Sprint(r)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	fn()
}

// TestIterRingWraps keeps the widest window the ring admits live, ℒ+2
// consecutive iterations, and slides it over several turns of the ring:
// every iteration gets its own record, and a record serves x again only as
// x+ℒ+2.
func TestIterRingWraps(t *testing.T) {
	for _, L := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("L%d", L), func(t *testing.T) {
			r := newIterRing(L, 2)
			N := len(r)
			if N != L+2 {
				t.Fatalf("%d records for ℒ=%d, want ℒ+2", N, L)
			}
			for x := 0; x < N; x++ {
				r.at(x)
			}
			for x := N; x < 4*N; x++ {
				r.retire(x - N)
				rec := r.at(x)
				if rec != &r[x%N] || rec.iter != x {
					t.Fatalf("iteration %d claimed record %p holding %d", x, rec, rec.iter)
				}
				for y := x - N + 1; y <= x; y++ {
					if got := r.at(y); got.iter != y {
						t.Fatalf("live iteration %d lost its record to %d", y, got.iter)
					}
				}
			}
		})
	}
}

// TestIterRingRetireClears fills a record the way one iteration does,
// retires it, and checks that the iteration reusing its index finds it
// clean, with its buffers kept.
func TestIterRingRetireClears(t *testing.T) {
	r := newIterRing(1, 2)
	N := len(r)
	rec := r.at(4)
	rows := rec.rows
	rec.plan = &core.Plan{}
	rec.slots = append(rec.slots, 3, 1, 2)
	rec.reps[1] = transport.ReplicaMsg{Iter: 4, Rows: [][]float32{{1}}}
	rec.repFrom.set(1)
	rec.sync[transport.SyncUrgent][1] = append(rec.sync[transport.SyncUrgent][1], 3)
	rec.landed[transport.SyncUrgent].set(1)
	rec.registered, rec.staged, rec.routed, rec.emitted = true, true, true, true
	rec.expiring = 2
	rec.evs = append(rec.evs, core.Eviction{ID: 7, Row: []float32{1}})
	if !r.emitted(4) || r.registered(4) != rec {
		t.Fatal("emitted live record not found")
	}
	r.retire(4)
	if r.emitted(4) || r.registered(4) != nil {
		t.Fatal("retired record still found as emitted or registered")
	}

	got := r.at(4 + N)
	if got != rec {
		t.Fatalf("iteration %d did not reuse iteration 4's record", 4+N)
	}
	if got.iter != 4+N || got.plan != nil || len(got.slots) != 0 || got.repFrom != 0 || got.landed[transport.SyncUrgent] != 0 ||
		got.registered || got.staged || got.routed || got.emitted || got.expiring != 0 || got.owed != 0 || len(got.evs) != 0 || len(got.rows) != 0 {
		t.Fatalf("reused record is not clean: %+v", *got)
	}
	for o, rep := range got.reps {
		if rep.Rows != nil {
			t.Fatalf("reused record still holds owner %d's replica push", o)
		}
	}
	if ev := got.evs[:1][0]; ev.Row != nil {
		t.Fatal("reused record's eviction buffer still references a written-back row")
	}
	if got.rows != rows || cap(got.slots) < 3 || cap(got.evs) < 1 {
		t.Fatal("retirement dropped the record's buffers")
	}
}

// TestIterRingOverflowPanics: an iteration ℒ+2 past a live one would share
// its record, which the ring refuses loudly, naming both iterations.
func TestIterRingOverflowPanics(t *testing.T) {
	r := newIterRing(2, 2)
	r.at(3)
	mustPanic(t, func() { r.at(3 + len(r)) }, "iteration 7", "live iteration 3")
}

// TestOwnedFromResolvesSubsequences walks ascending subsequences of a
// record's Owned, the way stage resolves Prefetch and ReplicaOut, and
// refuses an id outside it.
func TestOwnedFromResolvesSubsequences(t *testing.T) {
	r := newIterRing(1, 2)
	rec := r.at(6)
	rec.plan = &core.Plan{Owned: []uint64{2, 5, 9, 12}}
	k := 0
	for i, id := range []uint64{5, 9, 12} {
		if k = rec.ownedFrom(k, id); k != i+1 {
			t.Fatalf("id %d resolved to Owned[%d], want %d", id, k, i+1)
		}
	}
	mustPanic(t, func() { rec.ownedFrom(0, 7) }, "iteration 6", "id 7")
	mustPanic(t, func() { rec.ownedFrom(0, 13) }, "iteration 6", "id 13")
	mustPanic(t, func() { rec.ownedFrom(2, 5) }, "id 5") // out of order: behind the cursor
}

// TestPlanRingRefuses feeds a worker's plan ring the arrivals a broken or
// hostile peer could send, each refused with an attributed failure naming
// the rank and iteration: a plan below the next iteration to drain, one at
// or beyond the ring's bound or the run's end, and a second plan for a
// filled slot. In-window plans arriving in any order drain in iteration
// order, and the ring spans ℒ+lead+3 iterations.
func TestPlanRingRefuses(t *testing.T) {
	const L, iters = 4, 40
	plan := func(x int) *core.Plan { return &core.Plan{Trainer: 1, Dec: &core.Decision{Iter: x}} }
	r := newPlanRing(1, L, iters)
	N := len(r.ring)
	if N != L+planQueue(L)+3 {
		t.Fatalf("%d slots for ℒ=%d, want ℒ+lead+3 = %d", N, L, L+planQueue(L)+3)
	}
	for x := N - 1; x >= 0; x-- {
		r.put(plan(x))
	}
	mustPanic(t, func() { r.put(plan(N)) }, "trainer 1", fmt.Sprintf("iteration %d", N), "beyond")
	mustPanic(t, func() { r.put(plan(3)) }, "trainer 1", "iteration 3", "second plan")
	for x := 0; x < 2; x++ {
		if pl, ok := r.take(); !ok || pl.Dec.Iter != x {
			t.Fatalf("drain %d: got %v, %v", x, pl, ok)
		}
	}
	mustPanic(t, func() { r.put(plan(1)) }, "trainer 1", "iteration 1", "already drained")
	mustPanic(t, func() { r.put(plan(-5)) }, "trainer 1", "iteration -5", "already drained")
	mustPanic(t, func() { r.put(plan(N + 2)) }, "trainer 1", fmt.Sprintf("iteration %d", N+2), "beyond")
	r.put(plan(N + 1)) // the drained slots take the window's next plans
	r.put(plan(N))
	for x := 2; x < N+2; x++ {
		if pl, ok := r.take(); !ok || pl.Dec.Iter != x {
			t.Fatalf("drain %d: got %v, %v", x, pl, ok)
		}
	}
	mustPanic(t, func() { r.put(plan(iters)) }, "trainer 1", fmt.Sprintf("iteration %d", iters), "beyond")
	for x := N + 2; x < iters; x++ {
		r.put(plan(x))
		if pl, ok := r.take(); !ok || pl.Dec.Iter != x {
			t.Fatalf("drain %d: got %v, %v", x, pl, ok)
		}
	}
	if pl, ok := r.take(); ok {
		t.Fatalf("plan %d drained past the run's end", pl.Dec.Iter)
	}
}
