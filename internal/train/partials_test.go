package train

import (
	"fmt"
	"reflect"
	"sync"
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
	// Slots 1 and 2 steer comm-aware. Each of their ids is read by one
	// example only, a vote for its owner (even ids trainer 0, odd ones
	// trainer 1), so examples 0 and 3 are cheapest on trainer 0 and
	// examples 1 and 2 on trainer 1: 0 cross-trainer pairs there, against
	// the contiguous split's 4. Row hot does not steer: four readers are
	// more than one trainer holds (⌈4/2⌉ = 2), so it is read on both
	// trainers under every balanced placement.
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
		{core.CommAware{}, []int{0, 1, 1, 0}, 0},
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
			ids := b.UniqueIDs()
			var idx core.IDTable
			for _, id := range ids {
				idx.Put(id)
			}
			for r := range results {
				ls := &localSlice{mine: results[r].mine}
				ls.index(b, numCat, &idx, len(ids))
				results[r].pos = ls.pos
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

			grads := make(map[uint64][]float32)
			for i, g := range foldRankGrads(results, len(ids), dim) {
				grads[ids[i]] = g
			}

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
			hs, _ := idx.Get(hot)
			for _, r := range []int{1, 0} {
				partial := make([][]float32, len(ids))
				arena.GetN(partial)
				rankPartials(partial, results[r].pos, results[r].dEmb, dim)
				parts[r] = partial[hs]
			}
			g := make([]float32, dim)
			arena.PutN(foldParts(g, parts, nil))
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

// declaredMesh wraps a mesh so every send checks the size it declares
// against the codec's encoding of its payload, and tallies the checked
// frames and bytes per payload type.
type declaredMesh struct {
	transport.Mesh
	t     *testing.T
	mu    sync.Mutex
	sends map[string][2]int64 // payload type → frames, bytes
}

func (m *declaredMesh) Endpoint(rank int) transport.Endpoint {
	return declaredEndpoint{m.Mesh.Endpoint(rank), m}
}

type declaredEndpoint struct {
	transport.Endpoint
	m *declaredMesh
}

func (e declaredEndpoint) Send(to int, bytes int64, payload any) bool {
	name := fmt.Sprintf("%T", payload)
	if n := int64(len(transport.EncodePayload(payload))); bytes != n {
		e.m.t.Errorf("rank %d → %d: %s declared %d bytes, the codec writes %d", e.Rank(), to, name, bytes, n)
	}
	e.m.mu.Lock()
	s := e.m.sends[name]
	e.m.sends[name] = [2]int64{s[0] + 1, s[1] + bytes}
	e.m.mu.Unlock()
	return e.Endpoint.Send(to, bytes, payload)
}

// TestDeclaredBytesMatchCodec: over a worker-mode run at P = 3, every frame
// of all four mesh classes — replica pushes, sync frames, plans and fused
// collectives — declares exactly the bytes the codec encodes for it, and
// MeshClasses, summed over the ranks, reports exactly those frames and
// bytes. The declared size is what the simulated mesh charges bandwidth for
// and what mesh_bytes_per_ex reads.
func TestDeclaredBytesMatchCodec(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 3
	cfg.NumBatches = 16
	srv := newServer(cfg.Spec, 3)
	mesh := &declaredMesh{Mesh: transport.NewInprocMesh(3), t: t, sends: map[string][2]int64{}}
	var sum MeshTraffic
	for _, res := range runWorkers(t, cfg, newStores(srv, 3), mesh) {
		c := res.MeshClasses
		sum.ReplicaMsgs, sum.ReplicaBytes = sum.ReplicaMsgs+c.ReplicaMsgs, sum.ReplicaBytes+c.ReplicaBytes
		sum.SyncMsgs, sum.SyncBytes = sum.SyncMsgs+c.SyncMsgs, sum.SyncBytes+c.SyncBytes
		sum.CollMsgs, sum.CollBytes = sum.CollMsgs+c.CollMsgs, sum.CollBytes+c.CollBytes
		sum.PlanMsgs, sum.PlanBytes = sum.PlanMsgs+c.PlanMsgs, sum.PlanBytes+c.PlanBytes
	}
	for _, c := range []struct {
		payload     any
		msgs, bytes int64
	}{
		{transport.ReplicaMsg{}, sum.ReplicaMsgs, sum.ReplicaBytes},
		{transport.SyncBatchMsg{}, sum.SyncMsgs, sum.SyncBytes},
		{transport.PlanMsg{}, sum.PlanMsgs, sum.PlanBytes},
		{transport.FusedCollMsg{}, sum.CollMsgs, sum.CollBytes},
	} {
		name := fmt.Sprintf("%T", c.payload)
		s := mesh.sends[name]
		if s[0] == 0 {
			t.Errorf("no %s sent", name)
		}
		if s != [2]int64{c.msgs, c.bytes} {
			t.Errorf("%s: %d frames of %d bytes sent, MeshClasses reports %d of %d", name, s[0], s[1], c.msgs, c.bytes)
		}
	}
}

// testRows returns n rows of width dim with distinct values.
func testRows(n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for k := range rows[i] {
			rows[i][k] = float32(i) + 0.25*float32(k)
		}
	}
	return rows
}

// recordingEndpoint records, for its last send, the size declared and the
// size the codec encodes for the payload.
type recordingEndpoint struct {
	transport.Endpoint
	declared, encoded int64
}

func (e *recordingEndpoint) Send(_ int, bytes int64, payload any) bool {
	e.declared, e.encoded = bytes, int64(len(transport.EncodePayload(payload)))
	return true
}

// sendDeclared sends payload through the engine's one send path and checks
// that the size it declares, and charges to class, is what the codec
// writes.
func sendDeclared(t *testing.T, class int, payload any) {
	t.Helper()
	var eng lrppEngine
	ep := &recordingEndpoint{}
	eng.send(ep, 1, class, payload)
	if ep.declared != ep.encoded {
		t.Fatalf("%T: declared %d bytes, codec wrote %d", payload, ep.declared, ep.encoded)
	}
	if m, b := eng.classMsgs[class].Load(), eng.classBytes[class].Load(); m != 1 || b != ep.encoded {
		t.Fatalf("%T: class %d charged %d frames of %d bytes, want 1 of %d", payload, class, m, b, ep.encoded)
	}
}

// TestSyncBatchBytesMatchesCodec: the size the engine declares for a sync
// frame (what the simulated mesh charges bandwidth for and MeshClasses
// reports) is exactly what the codec writes.
func TestSyncBatchBytesMatchesCodec(t *testing.T) {
	const dim = 6
	flush := func(iter int, c transport.SyncClass, n int) transport.SyncMsg {
		m := transport.SyncMsg{Iter: iter, Class: c}
		if n > 0 {
			m.Partials = testRows(n, dim)
		}
		return m
	}
	cases := [][]transport.SyncMsg{
		nil,
		{flush(9, transport.SyncUrgent, 1)},
		{flush(4, transport.SyncDeferred, 5)},
		{flush(4, transport.SyncUrgent, 5), flush(3, transport.SyncDeferred, 17)},
		{flush(1, transport.SyncUrgent, 0), flush(2, transport.SyncDeferred, 3)},
	}
	for _, flushes := range cases {
		sendDeclared(t, classSync, transport.SyncBatchMsg{Flushes: flushes})
	}
}

// TestReplicaMsgBytesMatchesCodec: the size the engine declares for a
// replica push is exactly what the codec writes.
func TestReplicaMsgBytesMatchesCodec(t *testing.T) {
	for _, dim := range []int{1, 6, 16} {
		for _, n := range []int{0, 1, 7, 300} {
			msg := transport.ReplicaMsg{Iter: 11}
			if n > 0 {
				msg.Rows = testRows(n, dim)
			}
			sendDeclared(t, classReplica, msg)
		}
	}
}

// TestSyncPreAggregationByteCut pins the point of sender-side
// pre-aggregation on the input it exists for: on a hot-tail spec at P=2 the
// sync class ships at most a third of what one vector per (example, remote
// row) would cost — remote lookups × (4 + 4·dim), the old per-example entry
// — in no more frames than one per (sender, owner, iteration, class), while
// the run stays bit-identical to the baseline.
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
	// Exactly one vector per (sender, remote row, iteration) crossed the mesh,
	// without its id: the declared bytes are the partials plus per-frame and
	// per-flush headers, one flush per frame.
	flushes := res.UrgentFlushes + res.DelayedFlushes
	if flushes != mc.SyncMsgs || res.UrgentFlushes == 0 || res.DelayedFlushes == 0 {
		t.Fatalf("%d sync frames for %d urgent and %d deferred flushes, want one frame each and both classes", mc.SyncMsgs, res.UrgentFlushes, res.DelayedFlushes)
	}
	if want := (5+17)*mc.SyncMsgs + remotePartials*int64(4*cfg.Spec.EmbDim); mc.SyncBytes != want {
		t.Fatalf("sync bytes %d, want %d (%d frames, %d partials)", mc.SyncBytes, want, mc.SyncMsgs, remotePartials)
	}
	if maxFrames := int64(P * (P - 1) * 2 * cfg.NumBatches); mc.SyncMsgs > maxFrames {
		t.Fatalf("%d sync frames, want at most %d (one per sender, owner, iteration and class)", mc.SyncMsgs, maxFrames)
	}
}
