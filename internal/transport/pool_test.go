package transport

import (
	"runtime"
	"sync"
	"testing"
)

// TestRowArenaReuse pins the free-list mechanics: a returned row is handed
// back out (no allocation), width mismatches are rejected at the pool
// boundary, and the batched Get/Put forms behave like their scalar pair.
func TestRowArenaReuse(t *testing.T) {
	a := NewRowArena(5)
	if a.Dim() != 5 {
		t.Fatalf("Dim() = %d, want 5", a.Dim())
	}
	r := a.Get()
	if len(r) != 5 {
		t.Fatalf("Get returned len %d, want 5", len(r))
	}
	a.Put(r)
	r2 := a.Get()
	if &r2[0] != &r[0] {
		t.Fatal("arena allocated a fresh row while the free list held one")
	}

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short Put", func() { a.Put(make([]float32, 4)) })
	mustPanic("long PutN", func() { a.PutN([][]float32{make([]float32, 6)}) })
	mustPanic("zero-dim arena", func() { NewRowArena(0) })

	// PutN skips nil slots; GetN fills every slot at the arena width.
	a.PutN([][]float32{nil, r2, nil})
	dst := make([][]float32, 3)
	a.GetN(dst)
	for i, row := range dst {
		if len(row) != 5 {
			t.Fatalf("GetN slot %d has len %d, want 5", i, len(row))
		}
	}

	// The process-wide registry returns one shared arena per width.
	if Rows(41) != Rows(41) {
		t.Fatal("Rows(41) returned distinct arenas for one width")
	}
	if Rows(41) == Rows(42) {
		t.Fatal("Rows conflated arenas of different widths")
	}
}

// TestRowArenaConcurrent hammers one arena from several goroutines, each
// checking that a row it holds is never touched by anyone else between Get
// and Put — the ownership handoff the trainer/receiver/maintenance
// goroutines rely on. Run under -race this also certifies the mutex gives
// the required happens-before edge.
func TestRowArenaConcurrent(t *testing.T) {
	a := NewRowArena(8)
	const goroutines, iters = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				row := a.Get()
				stamp := float32(g*iters + i + 1)
				for k := range row {
					row[k] = stamp
				}
				runtime.Gosched()
				for k := range row {
					if row[k] != stamp {
						t.Errorf("goroutine %d iter %d: row[%d] = %v, want %v — pooled row aliased while owned",
							g, i, k, row[k], stamp)
						return
					}
				}
				a.Put(row)
			}
		}(g)
	}
	wg.Wait()
}

// TestRowSlicePool: recycled headers always come back with all-nil slots,
// whatever they referenced before, and undersized pooled headers are
// dropped rather than returned short.
func TestRowSlicePool(t *testing.T) {
	h := GetRowSlice(4)
	for i := range h {
		h[i] = []float32{float32(i)}
	}
	PutRowSlice(h)
	got := GetRowSlice(3)
	if len(got) != 3 {
		t.Fatalf("GetRowSlice(3) returned len %d", len(got))
	}
	for i, row := range got {
		if row != nil {
			t.Fatalf("recycled header slot %d still references a row", i)
		}
	}
	PutRowSlice(got)
	if big := GetRowSlice(1 << 12); len(big) != 1<<12 {
		t.Fatalf("GetRowSlice(4096) returned len %d", len(big))
	}
	PutRowSlice(nil) // must be a no-op
}
