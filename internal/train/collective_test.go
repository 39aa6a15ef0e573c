package train

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"testing"
	"time"

	"bagpipe/internal/collective"
	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// TestCollectiveStrategiesBitIdentical is the collective conformance
// matrix: the chunk-owned round of collective.Group in one process, and
// over every mesh fabric (instant in-process, reordering simulated links,
// real TCP sockets + codec), at P = 2, 3
// and 4, where the model's segment total splits into uneven chunks, leaves
// the embedding servers bit-identical to the no-cache baseline and
// reports its exact losses. The optimizer varies with P, so that stateful
// dense steps over uneven chunks are certified too.
func TestCollectiveStrategiesBitIdentical(t *testing.T) {
	for _, strategy := range []string{CollFused} {
		for _, meshName := range []string{"group", "inproc", "sim", "tcp"} {
			t.Run(fmt.Sprintf("%s_%s", strategy, meshName), func(t *testing.T) {
				for _, P := range []int{2, 3, 4} {
					t.Run(fmt.Sprintf("P%d", P), func(t *testing.T) {
						c := unevenConfig(P)
						c.Optimizer = []string{"sgd", "momentum", "adam"}[P-2]
						c.Collective = strategy
						srvBase := newServer(c.Spec, 3)
						base, err := RunBaseline(c, transport.NewInProcess(srvBase))
						if err != nil {
							t.Fatalf("baseline: %v", err)
						}
						srv := newServer(c.Spec, 3)
						var results []*Result
						var total int
						prep := func(tr *lrppTrainer) {
							if tr.p == 0 { // workers prepare concurrently
								total = collective.Len(tr.segs)
							}
						}
						var mesh transport.Mesh
						switch meshName {
						case "group":
							res, err := runLRPP(c, newStores(srv, P), nil, prep)
							if err != nil {
								t.Fatal(err)
							}
							results = []*Result{res}
						case "inproc":
							mesh = transport.NewInprocMesh(P)
						case "sim":
							mesh = transport.NewSimMesh(P, 200*time.Microsecond, 20e6)
						case "tcp":
							lb, err := transport.NewLoopbackTCPMesh(P)
							if err != nil {
								t.Fatal(err)
							}
							defer lb.Shutdown()
							mesh = lb
						}
						if mesh != nil {
							results = runWorkersPrep(t, c, newStores(srv, P), mesh, prep)
						}
						if total%P == 0 {
							t.Fatalf("%d floats split evenly %d ways: the matrix needs uneven chunks", total, P)
						}
						if d := embed.Diff(srvBase, srv); len(d) != 0 {
							t.Fatalf("strategy %s over %s diverged at %d ids (first: %v)", strategy, meshName, len(d), d[0])
						}
						for p, res := range results {
							if res.FirstLoss != base.FirstLoss || res.LastLoss != base.LastLoss {
								t.Fatalf("worker %d losses diverged: %v/%v vs baseline %v/%v",
									p, res.FirstLoss, res.LastLoss, base.FirstLoss, base.LastLoss)
							}
							if mesh != nil && res.MeshClasses.CollMsgs == 0 {
								t.Fatalf("worker %d sent no collective frames under strategy %s", p, strategy)
							}
						}
					})
				}
			})
		}
	}
}

// TestFusedCollectiveFrameReduction pins the collective's arithmetic from
// the counters, not the math: per round every rank sends each peer one
// reduce-scatter frame (the peer's chunk of its gradients and its loss
// term) and one all-gather frame (its own stepped chunk), so each rank
// sends exactly 2(P−1) collective frames per iteration at P = 3's uneven
// chunks. The reduce-scatter frames carry the chunks' raw floats, so their
// bytes are pinned exactly. An all-gather frame is sized here from the
// words the round moved, the XOR of each float of the owner's chunk with
// the float it replaces: its header, a 2-bit tag per float, and each
// word's significant bytes (one for a zero word). It never exceeds the raw
// chunk by more than its ⌈n/4⌉ tag bytes.
func TestFusedCollectiveFrameReduction(t *testing.T) {
	cfg := unevenConfig(3)
	cfg.NumBatches = 10
	P, iters := cfg.NumTrainers, int64(cfg.NumBatches)

	srv := newServer(cfg.Spec, 3)
	mesh := &gatherMesh{Mesh: transport.NewInprocMesh(P), t: t, trainers: make([]*lrppTrainer, P),
		prev: make([][]float32, P), want: make([]int64, P)}
	var total int
	results := runWorkersPrep(t, cfg, newStores(srv, P), mesh, func(tr *lrppTrainer) {
		mesh.mu.Lock()
		defer mesh.mu.Unlock()
		total = collective.Len(tr.values)
		lo, hi := collective.Chunk(total, P, tr.p)
		mesh.trainers[tr.p], mesh.prev[tr.p] = tr, make([]float32, hi-lo)
		collective.FoldSpan(mesh.prev[tr.p], tr.values, lo, true)
	})
	for r, res := range results {
		if want := int64(2*(P-1)) * iters; res.MeshClasses.CollMsgs != want {
			t.Errorf("rank %d sent %d collective frames, want 2(P-1)·iters = %d", r, res.MeshClasses.CollMsgs, want)
		}
		var reduce int64
		for q := range P {
			if q != r {
				qlo, qhi := collective.Chunk(total, P, q)
				reduce += int64(transport.PayloadSize(transport.FusedCollMsg{Data: make([]float32, qhi-qlo), Loss: make([]float64, 1)}))
			}
		}
		if want := reduce*iters + mesh.want[r]; res.MeshClasses.CollBytes != want {
			t.Errorf("rank %d sent %d collective bytes, want %d: %d of reduce-scatter, %d of all-gather", r, res.MeshClasses.CollBytes, want, reduce*iters, mesh.want[r])
		}
		lo, hi := collective.Chunk(total, P, r)
		if raw := (hi - lo) * 4 * (P - 1) * int(iters); mesh.want[r] >= int64(raw) {
			t.Errorf("rank %d's all-gather frames take %d bytes, not fewer than the %d of its raw chunks", r, mesh.want[r], raw)
		}
	}
}

// gatherMesh wraps a mesh so every all-gather frame is sized from the
// words its owner's round moved: Send runs on the owner's trainer
// goroutine, between its step and its next one, so the owner's chunk of
// its values is the chunk the frame codes, and prev holds the chunk the
// owner's last frame coded. want sums each rank's reference sizes.
type gatherMesh struct {
	transport.Mesh
	t        *testing.T
	mu       sync.Mutex
	trainers []*lrppTrainer
	prev     [][]float32
	seq      []uint64 // rounds sized so far, per owner
	words    []int64  // the size of the owner's current round's frame
	want     []int64
}

func (m *gatherMesh) Endpoint(rank int) transport.Endpoint {
	return gatherEndpoint{m.Mesh.Endpoint(rank), m}
}

type gatherEndpoint struct {
	transport.Endpoint
	m *gatherMesh
}

func (e gatherEndpoint) Send(to int, bytes int64, payload any) bool {
	if f, ok := payload.(transport.FusedCollMsg); ok && f.Gather {
		e.m.size(f, bytes)
	}
	return e.Endpoint.Send(to, bytes, payload)
}

// size checks one all-gather frame of bytes declared bytes against the
// reference sizing of its owner's round, computing that once per round.
func (m *gatherMesh) size(f transport.FusedCollMsg, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seq == nil {
		m.seq, m.words = make([]uint64, len(m.prev)), make([]int64, len(m.prev))
	}
	r, prev := f.Origin, m.prev[f.Origin]
	n := len(prev)
	if f.Seq == m.seq[r] {
		tr := m.trainers[r]
		lo, _ := collective.Chunk(collective.Len(tr.values), len(m.prev), r)
		ref := int64(1+8+4+1+4) + int64(n+3)/4
		collective.Pieces(tr.values, lo, lo+n, func(i, a, b, off int) {
			for j, v := range tr.values[i][a:b] {
				w := math.Float32bits(v) ^ math.Float32bits(prev[off+j])
				ref += int64(max(1, (bits.Len32(w)+7)/8))
				prev[off+j] = v
			}
		})
		m.seq[r]++
		m.words[r] = ref
	} else if f.Seq != m.seq[r]-1 {
		m.t.Errorf("rank %d's all-gather frame of round %d after round %d's", r, f.Seq, m.seq[r]-1)
	}
	if bytes != m.words[r] {
		m.t.Errorf("rank %d's all-gather frame of round %d declares %d bytes, its words size to %d", r, f.Seq, bytes, m.words[r])
	}
	if raw := int64(1+8+4+1+4) + 4*int64(n); bytes > raw+int64(n+3)/4 {
		m.t.Errorf("rank %d's all-gather frame of round %d takes %d bytes, past raw %d + ⌈n/4⌉", r, f.Seq, bytes, raw)
	}
	m.want[r] += m.words[r]
}

// unevenConfig is tinyConfig at P trainers over a spec with one more
// numeric feature, which makes wd's 133 153 dense floats split unevenly
// two, three and four ways (tinySpec's 132 897 split evenly three ways).
func unevenConfig(P int) Config {
	cfg := tinyConfig()
	spec := *cfg.Spec
	spec.NumNumeric++
	cfg.Spec = &spec
	cfg.NumTrainers = P
	cfg.NumBatches = 12
	return cfg
}

// TestCalibrateAndAutoLookahead covers the -auto-lookahead machinery: the
// calibration returns a sane positive compute time, and the window policy
// respects both the latency floor (rtt/iter + slack) and the cache-budget
// ceiling.
func TestCalibrateAndAutoLookahead(t *testing.T) {
	cfg := tinyConfig()
	iter, err := CalibrateIterTime(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if iter <= 0 || iter > 5*time.Second {
		t.Fatalf("calibrated iteration time %v not plausible", iter)
	}

	// A link 10 iterations deep needs ℒ ≈ 12; a huge budget must not cap it.
	l, err := AutoLookahead(cfg, time.Millisecond, 10*time.Millisecond, 1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if l != 12 {
		t.Fatalf("auto ℒ = %d, want rtt/iter+2 = 12", l)
	}
	// A tiny cache budget caps the window regardless of latency.
	lTight, err := AutoLookahead(cfg, time.Millisecond, 100*time.Millisecond, 40, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lTight >= 102 || lTight < 1 {
		t.Fatalf("budget-capped ℒ = %d, want small positive", lTight)
	}
	if lTight > 8 {
		t.Fatalf("40-row budget fits ℒ = %d windows of ~16-example batches: cap not applied", lTight)
	}
	// Zero-cost compute degrades to the floor, never to zero.
	lFloor, err := AutoLookahead(cfg, 0, time.Millisecond, 1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lFloor != 2 {
		t.Fatalf("floor ℒ = %d, want 2", lFloor)
	}
	if _, err := AutoLookahead(cfg, time.Millisecond, time.Millisecond, 0, 64); err == nil {
		t.Fatal("zero cache budget accepted")
	}
	bad := cfg
	bad.Collective = "nope"
	if _, err := AutoLookahead(bad, time.Millisecond, time.Millisecond, 100, 64); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestCollectiveConfigValidation: every strategy name but the fused one —
// including the retired rooted, ring and tree — is rejected at every engine
// entry point.
func TestCollectiveConfigValidation(t *testing.T) {
	for _, name := range []string{"butterfly", "rooted", "ring", "tree"} {
		cfg := tinyConfig()
		cfg.Collective = name
		srv := newServer(cfg.Spec, 1)
		if _, err := RunLRPP(cfg, newStores(srv, cfg.NumTrainers), nil); err == nil {
			t.Fatalf("RunLRPP accepted collective strategy %q", name)
		}
		if _, err := RunLRPPWorker(cfg, 0, transport.NewInProcess(srv), transport.NewInprocMesh(cfg.NumTrainers)); err == nil {
			t.Fatalf("RunLRPPWorker accepted collective strategy %q", name)
		}
	}
	ok := tinyConfig()
	for _, s := range []string{"", CollFused} {
		ok.Collective = s
		if err := ok.validate(); err != nil {
			t.Fatalf("strategy %q rejected: %v", s, err)
		}
	}
}
