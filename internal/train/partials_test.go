package train

import (
	"reflect"
	"testing"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/tensor"
	"bagpipe/internal/transport"
)

// TestEmbeddingGradientOrderIsPerRankPartialThenRankOrder pins the canonical
// embedding-gradient reduction on gradients where float32 non-associativity
// tells the candidate orders apart. Four examples all read row `hot`; their
// gradients for it are 1e8, 1, −1e8, 1. In float32 1e8+1 == 1e8, so
//
//	batch-example order     ((1e8 + 1) − 1e8) + 1          = 1
//	ranks {0,1} | {2,3}     (1e8 + 1) + (−1e8 + 1)         = 0
//	ranks {0,2} | {1,3}     (1e8 − 1e8) + (1 + 1)          = 2
//	ranks {0,3} | {1,2}     (1e8 + 1) + (1 − 1e8)          = 0
//
// and every partitioner must land on its own line, never the first.
func TestEmbeddingGradientOrderIsPerRankPartialThenRankOrder(t *testing.T) {
	const (
		P, dim = 2, 2
		hot    = uint64(2) // hash owner 0
	)
	// Slots 1 and 2 steer comm-aware: even ids are owned by trainer 0, odd
	// ones by trainer 1, so examples 0 and 3 are cheapest on trainer 0 and
	// examples 1 and 2 on trainer 1.
	b := &data.Batch{Examples: []data.Example{
		{Cat: []uint64{hot, 10, 12}},
		{Cat: []uint64{hot, 11, 13}},
		{Cat: []uint64{hot, 15, 17}},
		{Cat: []uint64{hot, 14, 16}},
	}}
	hotGrad := []float32{1e8, 1, -1e8, 1}
	numCat := len(b.Examples[0].Cat)

	cases := []struct {
		part   core.Partitioner
		assign []int
		want   float32
	}{
		{core.Contiguous{}, []int{0, 0, 1, 1}, 0},
		{core.RoundRobin{}, []int{0, 1, 0, 1}, 2},
		{&core.CommAware{Own: core.Ownership{}}, []int{0, 1, 1, 0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.part.Name(), func(t *testing.T) {
			assign := tc.part.Assign(b, P)
			if !reflect.DeepEqual(assign, tc.assign) {
				t.Fatalf("assignment %v, the test's gradients assume %v", assign, tc.assign)
			}
			// What each rank's backward pass would hand back: one dEmb row per
			// example of its sub-batch, hot-row gradient in slot 0 (second
			// element a constant that is exact under any order), a
			// per-example value in the private slots.
			results := make([]rankResult, P)
			for i, r := range assign {
				results[r].mine = append(results[r].mine, i)
			}
			for r := range results {
				dEmb := tensor.NewMatrix(len(results[r].mine), numCat*dim)
				for k, i := range results[r].mine {
					row := dEmb.Data[k*dEmb.Cols : (k+1)*dEmb.Cols]
					row[0], row[1] = hotGrad[i], 0.5
					for c := 1; c < numCat; c++ {
						row[c*dim], row[c*dim+1] = float32(10*i+c), -float32(i)
					}
				}
				results[r].dEmb = dEmb
			}

			grads := foldRankGrads(b, results, dim)

			if got := grads[hot]; got[0] != tc.want || got[1] != 2 {
				t.Fatalf("hot row gradient %v, want [%v 2] (batch-example order would give [1 2])", got, tc.want)
			}
			// The reference written out longhand, for every row.
			want := make(map[uint64][]float32)
			for r := 0; r < P; r++ {
				partial := make(map[uint64][]float32)
				for i, ex := range b.Examples {
					if assign[i] != r {
						continue
					}
					for c, id := range ex.Cat {
						if partial[id] == nil {
							partial[id] = make([]float32, dim)
						}
						g := []float32{float32(10*i + c), -float32(i)}
						if c == 0 {
							g = []float32{hotGrad[i], 0.5}
						}
						partial[id][0] += g[0]
						partial[id][1] += g[1]
					}
				}
				for id, p := range partial {
					if want[id] == nil {
						want[id] = make([]float32, dim)
					}
					want[id][0] += p[0]
					want[id][1] += p[1]
				}
			}
			if !reflect.DeepEqual(grads, want) {
				t.Fatalf("gradients %v, want %v", grads, want)
			}

			// The owner-side half of the same rule: the partials a rank would
			// flush, deposited in per-rank slots in any arrival order, fold to
			// the same bits.
			arena := transport.Rows(dim)
			parts := make([][]float32, P)
			for _, r := range []int{1, 0} {
				partial := make(map[uint64][]float32)
				rankPartials(partial, b, results[r].mine, results[r].dEmb, dim, arena.Get)
				parts[r] = partial[hot]
			}
			g := make([]float32, dim)
			foldParts(g, parts, arena)
			if !reflect.DeepEqual(g, grads[hot]) {
				t.Fatalf("owner-side fold %v, reference %v", g, grads[hot])
			}
			for r, p := range parts {
				if p != nil {
					t.Fatalf("fold left rank %d's slot occupied", r)
				}
			}
		})
	}
}

// TestSyncBatchBytesMatchesCodec: the size the engine declares for a sync
// frame (what the simulated mesh charges bandwidth for and MeshClasses
// reports) is exactly what the codec writes, lossless and f16 alike.
func TestSyncBatchBytesMatchesCodec(t *testing.T) {
	const dim = 6
	table := func(n int, f16 bool) map[uint64][]float32 {
		m := make(map[uint64][]float32, n)
		for i := 0; i < n; i++ {
			g := make([]float32, dim)
			for k := range g {
				g[k] = float32(i) + 0.25*float32(k)
			}
			if f16 {
				transport.QuantizeF16(g)
			}
			m[uint64(7*i+3)] = g
		}
		return m
	}
	cases := [][]transport.SyncMsg{
		nil,
		{{Iter: 9, Partials: table(1, false)}},
		{{Iter: 9, F16: true, Partials: table(1, true)}},
		{{Iter: 4, Partials: table(5, false)}, {Iter: 3, Partials: table(17, false)}},
		{{Iter: 4, F16: true, Partials: table(5, true)}, {Iter: 3, F16: true, Partials: table(17, true)}},
		{{Iter: 1, Partials: table(0, false)}, {Iter: 2, F16: true, Partials: table(3, true)}},
	}
	for i, flushes := range cases {
		declared := syncBatchBytes(flushes, dim)
		encoded := len(transport.EncodePayload(transport.SyncBatchMsg{Flushes: flushes}))
		if declared != int64(encoded) {
			t.Fatalf("case %d: declared %d bytes, codec wrote %d", i, declared, encoded)
		}
	}
}

// TestSyncPreAggregationByteCut pins the point of sender-side
// pre-aggregation on the input it exists for: on a hot-tail spec at P=2 the
// sync class ships at most a third of what one vector per (example, remote
// row) would cost — remote lookups × (4 + 4·dim), the old per-example entry
// — in no more frames than one per (sender, owner, flush pass), while the
// run stays bit-identical to the baseline.
func TestSyncPreAggregationByteCut(t *testing.T) {
	cfg := tinyConfig()
	cfg.Spec = tinySpec().WithEmbDim(16)
	cfg.Spec.Dist = data.NewHotTail(0.02, 0.9, 1.05)
	cfg.BatchSize = 64
	cfg.NumBatches = 20
	P := cfg.NumTrainers

	srvBase := newServer(cfg.Spec, 3)
	if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg.Spec, 3)
	res, err := RunLRPP(cfg, newStores(srv, P), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, srv); len(d) != 0 {
		t.Fatalf("embedding state diverged from the baseline at %d ids (first: %v)", len(d), d[0])
	}

	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	var remoteLookups, remotePartials int64
	for x := 0; x < cfg.NumBatches; x++ {
		b := gen.Batch(x, cfg.BatchSize)
		assign := cfg.partitioner().Assign(b, P)
		seen := make(map[[2]uint64]bool)
		for i, ex := range b.Examples {
			for _, id := range ex.Cat {
				if core.OwnerOf(id, P) == assign[i] {
					continue
				}
				remoteLookups++
				if k := [2]uint64{uint64(assign[i]), id}; !seen[k] {
					seen[k] = true
					remotePartials++
				}
			}
		}
	}
	perExample := remoteLookups * int64(4+4*cfg.Spec.EmbDim)
	mc := res.MeshClasses
	t.Logf("%d remote lookups -> %d partials; sync bytes %d vs %d per-example (%.1f%%), %d frames",
		remoteLookups, remotePartials, mc.SyncBytes, perExample, 100*float64(mc.SyncBytes)/float64(perExample), mc.SyncMsgs)
	if mc.SyncBytes == 0 || mc.SyncBytes*3 > perExample {
		t.Fatalf("sync bytes %d not ≤ 1/3 of the per-example cost %d (%d remote lookups, %d remote partials)",
			mc.SyncBytes, perExample, remoteLookups, remotePartials)
	}
	// Exactly one vector per (sender, remote row, iteration) crossed the mesh:
	// the declared bytes are the partials plus per-frame and per-table headers.
	tables := res.UrgentFlushes + res.DelayedFlushes
	if want := 5*mc.SyncMsgs + 17*tables + remotePartials*int64(8+4*cfg.Spec.EmbDim); mc.SyncBytes != want {
		t.Fatalf("sync bytes %d, want %d (%d frames, %d tables, %d partials)", mc.SyncBytes, want, mc.SyncMsgs, tables, remotePartials)
	}
	if maxFrames := int64(P * (P - 1) * (cfg.NumBatches + 1)); mc.SyncMsgs == 0 || mc.SyncMsgs > maxFrames {
		t.Fatalf("%d sync frames, want 1..%d (one per sender, owner and flush pass)", mc.SyncMsgs, maxFrames)
	}
}
