package embed

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bagpipe/internal/core"
)

// modelTier is the plain id → row map a server's in-place walks must agree
// with.
type modelTier map[uint64][]float32

// part returns the model's ids in partition part of of ∩ within of
// withinOf, ascending, and their digest sum.
func (m modelTier) part(part, of, within, withinOf int) ([]uint64, uint64) {
	var ids []uint64
	var sum uint64
	for id, row := range m {
		if inPart(id, part, of, within, withinOf) {
			ids = append(ids, id)
			sum += rowDigest(id, row)
		}
	}
	slices.Sort(ids)
	return ids, sum
}

// checkWalks compares every in-place walk of srv against the model: the
// digest and the export of every (part, within) cell of both splits, the
// sorted materialized ids and their count.
func checkWalks(t *testing.T, srv *Server, model modelTier, of, withinOf int, step int) {
	t.Helper()
	all, _ := model.part(0, 1, 0, 1)
	if got := srv.MaterializedIDs(); !slices.Equal(got, all) {
		t.Fatalf("step %d: MaterializedIDs lists %d ids, model %d", step, len(got), len(all))
	}
	if got := srv.NumMaterialized(); got != len(all) {
		t.Fatalf("step %d: NumMaterialized %d, model %d", step, got, len(all))
	}
	for part := 0; part < of; part++ {
		for within := 0; within < withinOf; within++ {
			want, sum := model.part(part, of, within, withinOf)
			if got := srv.FingerprintPartIn(part, of, within, withinOf); got != sum {
				t.Fatalf("step %d: FingerprintPartIn(%d, %d, %d, %d) = %x, model %x", step, part, of, within, withinOf, got, sum)
			}
			ids, rows := srv.ExportPartIn(part, of, within, withinOf)
			if !slices.Equal(ids, want) {
				t.Fatalf("step %d: ExportPartIn(%d, %d, %d, %d) exports %d ids, model %d (or out of order)",
					step, part, of, within, withinOf, len(ids), len(want))
			}
			for i, id := range ids {
				if !slices.Equal(rows[i], model[id]) {
					t.Fatalf("step %d: exported row %d = %v, model %v", step, id, rows[i], model[id])
				}
			}
		}
	}
}

// TestTierWalkMatchesSorted drives random writes, removals and settle-time
// RetainOwned sweeps through a server whose tables span several slab
// chunks, and checks FingerprintPartIn, ExportPartIn, RetainOwned and
// MaterializedIDs — each a walk over the slab in slot order — against the
// sorted definition over a model map, for every pair of splits
// of, withinOf ∈ {1, 2, 3}.
func TestTierWalkMatchesSorted(t *testing.T) {
	const (
		dim, shards, vocab = 3, 2, 6000 // > 2 slab chunks per shard
		steps              = 1500
	)
	for of := 1; of <= 3; of++ {
		for withinOf := 1; withinOf <= 3; withinOf++ {
			rng := rand.New(rand.NewSource(int64(10*of + withinOf)))
			srv := NewServer(shards, dim, 5, 0.2)
			model := modelTier{}
			spanned := false // some check walked a table past one chunk
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(100); {
				case op < 55: // batched write of distinct ids
					ids := make([]uint64, 0, 80)
					for len(ids) < cap(ids) {
						if id := uint64(rng.Intn(vocab)); !slices.Contains(ids, id) {
							ids = append(ids, id)
						}
					}
					rows := make([][]float32, len(ids))
					for i, id := range ids {
						rows[i] = []float32{rng.Float32(), float32(step), float32(id)}
						model[id] = rows[i]
					}
					srv.Write(ids, rows)
				case op < 95: // removal, materialized or not
					id := uint64(rng.Intn(vocab))
					_, had := model[id]
					if srv.shards[srv.ShardOf(id)].Remove(id) != had {
						t.Fatalf("step %d: Remove(%d) disagrees with the model (materialized %v)", step, id, had)
					}
					delete(model, id)
				case op < 99: // nothing: let the writes outrun the sweeps
				default: // settle-time sweep
					self, rep := rng.Intn(of), 1+rng.Intn(max(of-1, 1))
					dropped := 0
					for id := range model {
						if (self-core.OwnerOf(id, of)+of)%of >= rep {
							delete(model, id)
							dropped++
						}
					}
					if n := srv.RetainOwned(self, of, rep); n != dropped {
						t.Fatalf("step %d: RetainOwned(%d, %d, %d) dropped %d rows, model %d", step, self, of, rep, n, dropped)
					}
				}
				if step%150 == 149 {
					checkWalks(t, srv, model, of, withinOf, step)
					for _, tab := range srv.shards {
						spanned = spanned || len(tab.chunks) > 1
					}
				}
			}
			if !spanned {
				t.Fatalf("of %d within %d: no table grew past one slab chunk", of, withinOf)
			}
		}
	}
}

// TestTierWalkRacesWriters runs FingerprintPartIn and ExportPartIn while
// writers overwrite, remove and re-add rows (run it under -race). Rows no
// writer touches must be exported exactly once each, with their value, in
// every racing export; once the writers stop, both walks equal the model.
func TestTierWalkRacesWriters(t *testing.T) {
	const (
		dim, shards = 4, 2
		stable      = 3000 // ids [0, stable) are written once, up front
		perWriter   = 2000
		writers     = 2
		walks       = 20 // racing export walks, at the least
	)
	srv := NewServer(shards, dim, 3, 0.1)
	model := modelTier{}
	row := func(id uint64, gen int) []float32 {
		return []float32{float32(id), float32(gen), -float32(id), 0.5}
	}
	for id := uint64(0); id < stable; id++ {
		model[id] = row(id, 0)
		srv.Write([]uint64{id}, [][]float32{model[id]})
	}
	// Writer w owns ids stable + w·perWriter + [0, perWriter): its model is
	// its own, merged once every writer has stopped.
	finals := make([]modelTier, writers)
	var walked atomic.Int32
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mine := modelTier{}
			base := uint64(stable + w*perWriter)
			for gen := 1; walked.Load() < walks; gen++ {
				ids := make([]uint64, 0, 64)
				rows := make([][]float32, 0, 64)
				for range 64 {
					id := base + uint64(rng.Intn(perWriter))
					if slices.Contains(ids, id) {
						continue
					}
					ids = append(ids, id)
					rows = append(rows, row(id, gen))
					mine[id] = rows[len(rows)-1]
				}
				srv.Write(ids, rows)
				for range 40 {
					id := base + uint64(rng.Intn(perWriter))
					srv.shards[srv.ShardOf(id)].Remove(id)
					delete(mine, id)
				}
			}
			finals[w] = mine
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for racing := true; racing; {
		select {
		case <-done:
			racing = false
		default:
		}
		_ = srv.FingerprintPartIn(0, 2, 0, 1)
		ids, rows := srv.ExportPartIn(1, 2, 0, 1)
		if !slices.IsSorted(ids) {
			t.Fatal("a racing export is not ascending")
		}
		seen := 0
		for i, id := range ids {
			if i > 0 && ids[i-1] == id {
				t.Fatalf("a racing export lists id %d twice", id)
			}
			if id < stable {
				seen++
				if !slices.Equal(rows[i], model[id]) {
					t.Fatalf("racing export: untouched row %d = %v, want %v", id, rows[i], model[id])
				}
			}
		}
		if want, _ := model.part(1, 2, 0, 1); seen != len(want) {
			t.Fatalf("a racing export holds %d untouched rows of partition 1, want %d", seen, len(want))
		}
		walked.Add(1)
	}
	for _, mine := range finals {
		for id, r := range mine {
			model[id] = r
		}
	}
	checkWalks(t, srv, model, 2, 3, -1)
}

// TestFingerprintPartInAllocFree: a certificate reads each shard's rows in
// place, so on a warmed server holding 100k rows it allocates nothing,
// whatever the partition filters.
func TestFingerprintPartInAllocFree(t *testing.T) {
	const rows, dim = 100_000, 16
	srv := NewServer(4, dim, 7, 0.1)
	ids := make([]uint64, 0, 1000)
	vals := make([][]float32, cap(ids))
	for i := range vals {
		vals[i] = make([]float32, dim)
	}
	for id := uint64(0); id < rows; id++ {
		ids = append(ids, id*2654435761%(1<<30))
		if len(ids) == cap(ids) {
			srv.Write(ids, vals)
			ids = ids[:0]
		}
	}
	if n := srv.NumMaterialized(); n < rows {
		t.Fatalf("%d rows materialized, want %d", n, rows)
	}
	for _, c := range [][4]int{{0, 1, 0, 1}, {1, 2, 0, 1}, {2, 3, 1, 2}} {
		if a := testing.AllocsPerRun(3, func() { srv.FingerprintPartIn(c[0], c[1], c[2], c[3]) }); a != 0 {
			t.Fatalf("FingerprintPartIn%v: %v allocations per call", c, a)
		}
	}
}

// TestStatsBytesPerRow derives the bytes a materialized row costs at dim 16
// and holds Stats to it: 64 B of slab, plus the id table's 8-byte entries
// (below 8/3 per row at a 3/4 load bound), its 8-byte id (appended, so at
// most twice the rows) and the row's live-write mark bit (1/8 B); per
// table, at most one partly used slab chunk with its mark words and a
// minimum-size entry array.
func TestStatsBytesPerRow(t *testing.T) {
	const (
		dim, shards, rows = 16, 4, 200_000
		slabPerRow        = 4 * dim
		indexPerRow       = 8*8.0/3 + 2*8 + 1.0/8
		perTable          = 4*dim*(slabChunkRows-1) + 8*16 + 64 + 8*markWords
	)
	srv := NewServer(shards, dim, 7, 0.1)
	ids := make([]uint64, 0, 1000)
	vals := make([][]float32, cap(ids))
	for i := range vals {
		vals[i] = make([]float32, dim)
	}
	for id := uint64(0); id < rows; id++ {
		ids = append(ids, id*0x9E3779B1%(1<<40))
		if len(ids) == cap(ids) {
			srv.Write(ids, vals)
			ids = ids[:0]
		}
	}
	st := srv.Stats()
	if st.Rows != rows || int(st.Rows) != srv.NumMaterialized() {
		t.Fatalf("Stats.Rows %d, %d materialized, want %d", st.Rows, srv.NumMaterialized(), rows)
	}
	if st.SlabBytes < slabPerRow*rows || st.SlabBytes > slabPerRow*rows+shards*4*dim*slabChunkRows {
		t.Fatalf("slab holds %d B for %d rows", st.SlabBytes, rows)
	}
	bound := (slabPerRow+indexPerRow)*rows + shards*perTable
	got := float64(st.SlabBytes + st.IndexBytes)
	t.Logf("%.1f B/row (slab %.1f, index %.1f); bound %.1f", got/rows,
		float64(st.SlabBytes)/rows, float64(st.IndexBytes)/rows, bound/rows)
	if got > bound {
		t.Fatalf("tables hold %.0f B for %d rows at dim %d, bound %.0f", got, rows, dim, bound)
	}
}
