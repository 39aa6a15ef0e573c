package embed

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bagpipe/internal/core"
)

// TestTableSlabMatchesMapReference drives a seeded mix of single and
// batched writes, removals, settle-time RetainOwned sweeps, reads and
// export round trips through a server whose tables keep rows in the
// slab, and the same operations through a plain id → row map. Every read,
// the materialized ids, their count and the fingerprint must agree bit for
// bit, and a table may grow its slab only when no removed slot is free.
func TestTableSlabMatchesMapReference(t *testing.T) {
	const (
		dim, shards, vocab = 3, 2, 5000 // > slabChunkRows ids per shard
		seed, scale        = 17, 0.25
		steps              = 4000
	)
	rng := rand.New(rand.NewSource(42))
	srv := NewServer(shards, dim, seed, scale)
	model := map[uint64][]float32{}
	fresh := NewTable(dim, seed, scale) // never written: Get is the init value
	peak := make([]int, shards)         // per-table peak materialized count
	spanned := false                    // some check saw a table past one chunk

	value := func() []float32 {
		row := make([]float32, dim)
		for k := range row {
			switch rng.Intn(16) {
			case 0:
				row[k] = float32(math.Copysign(0, -1))
			case 1:
				row[k] = math.SmallestNonzeroFloat32
			default:
				row[k] = rng.Float32()*4 - 2
			}
		}
		return row
	}
	check := func(step int) {
		t.Helper()
		var want []uint64
		var fp uint64
		for id, row := range model {
			want = append(want, id)
			fp += rowDigest(id, row)
		}
		slices.Sort(want)
		if got := srv.MaterializedIDs(); !slices.Equal(got, want) {
			t.Fatalf("step %d: %d materialized ids, model holds %d", step, len(got), len(want))
		}
		if got := srv.NumMaterialized(); got != len(model) {
			t.Fatalf("step %d: NumMaterialized %d, model %d", step, got, len(model))
		}
		if got := srv.Fingerprint(); got != fp {
			t.Fatalf("step %d: fingerprint %x, model %x", step, got, fp)
		}
		for sh, tab := range srv.shards {
			n := tab.NumMaterialized()
			spanned = spanned || len(tab.chunks) > 1
			// A freed slot is reused before the slab grows: the id table has
			// handed out exactly the peak's slots, and the slab holds them in
			// as few chunks as they fit.
			slots := tab.index.Slots()
			if slots != peak[sh] || len(tab.chunks) != (slots+slabChunkRows-1)/slabChunkRows {
				t.Fatalf("step %d: shard %d holds %d rows in %d slots and %d chunks, peak %d: a free slot was not reused",
					step, sh, n, slots, len(tab.chunks), peak[sh])
			}
		}
	}
	got := make([]float32, dim)
	want := make([]float32, dim)
	for step := 0; step < steps; step++ {
		id := uint64(rng.Intn(vocab))
		switch op := rng.Intn(100); {
		case op < 30: // single write: Table.Set
			row := value()
			srv.Write([]uint64{id}, [][]float32{row})
			model[id] = row
		case op < 45: // batched write: Table.SetMany, distinct ids
			ids := make([]uint64, 0, 96)
			seen := map[uint64]bool{}
			for len(ids) < cap(ids) {
				if x := uint64(rng.Intn(vocab)); !seen[x] {
					seen[x] = true
					ids = append(ids, x)
				}
			}
			rows := make([][]float32, len(ids))
			for i, x := range ids {
				rows[i] = value()
				model[x] = rows[i]
			}
			srv.Write(ids, rows)
		case op < 70: // removal, materialized or not
			_, had := model[id]
			if srv.shards[srv.ShardOf(id)].Remove(id) != had {
				t.Fatalf("step %d: Remove(%d) disagrees with the model (materialized %v)", step, id, had)
			}
			delete(model, id)
		case op < 72: // settle-time sweep of a reshard
			of := 2 + rng.Intn(3)
			self, rep := rng.Intn(of), 1+rng.Intn(of-1)
			dropped := 0
			for x := range model {
				if (self-core.OwnerOf(x, of)+of)%of >= rep {
					delete(model, x)
					dropped++
				}
			}
			if n := srv.RetainOwned(self, of, rep); n != dropped {
				t.Fatalf("step %d: RetainOwned dropped %d rows, model %d", step, n, dropped)
			}
		case op < 99: // read
			srv.shards[srv.ShardOf(id)].Get(id, got)
			if row, ok := model[id]; ok {
				copy(want, row)
			} else {
				fresh.Get(id, want)
			}
			for k := range got {
				if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
					t.Fatalf("step %d: row %d = %v, model %v", step, id, got, want)
				}
			}
		default: // export round trip into a fresh server
			ids, rows := srv.ExportPartIn(0, 1, 0, 1)
			srv = NewServer(shards, dim, seed, scale)
			srv.Write(ids, rows)
			for sh, tab := range srv.shards {
				peak[sh] = tab.NumMaterialized()
			}
		}
		for sh, tab := range srv.shards {
			peak[sh] = max(peak[sh], tab.NumMaterialized())
		}
		if step%100 == 0 || step == steps-1 {
			check(step)
		}
	}
	if !spanned {
		t.Fatal("no table grew past one slab chunk")
	}
}
