//go:build !race

package train

import (
	"slices"
	"testing"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// slowFetchStore delays every Fetch, as a remote tier's round trip would.
type slowFetchStore struct {
	transport.Store
	d time.Duration
}

func (s slowFetchStore) Fetch(ids []uint64) [][]float32 {
	time.Sleep(s.d)
	return s.Store.Fetch(ids)
}

// stretchIterations returns hooks that sleep d on each trainer's stage of
// every iteration, as its first prefetched row is inserted, so every
// iteration takes at least d.
func stretchIterations(d time.Duration) *LRPPHooks {
	var last [core.MaxTrainers]int // each entry is written by its trainer's stager alone
	for p := range last {
		last[p] = -1
	}
	return &LRPPHooks{OnInsert: func(trainer, iter int, _ uint64) {
		if last[trainer] != iter {
			last[trainer] = iter
			time.Sleep(d)
		}
	}}
}

// TestAdmissionDepth pins the admission depth rule. Uniform draws over
// tables far larger than a window make every iteration prefetch. Over free
// in-process links a fetch lands long before its iteration is staged, so the
// depth stays at its floor. That premise needs iterations long against an OS
// time slice: a tiny model's iteration is a fraction of a millisecond, and
// on a busy machine a fetch goroutine descheduled for one slice outlasts the
// D−1 iterations of slack. The free run stretches every iteration to 10 ms
// (stretchIterations). When every Fetch sleeps 20 ms, far longer than a
// tiny model's iteration, staged iterations find their rows missing and the
// depth grows until the prefetches are issued early enough: the extra
// iterations of a run twice as long then wait for rows almost not at all.
// The depth never passes ℒ, and every run ends bit-identical to the
// baseline. The race detector slows the model so far that a 20 ms fetch is
// no longer long against an iteration, so the test builds without it, as
// the allocation gate does.
func TestAdmissionDepth(t *testing.T) {
	base := tinyConfig()
	base.Spec = tinySpec()
	base.Spec.TableSizes = []int64{1 << 16, 1 << 16, 1 << 16, 1 << 16}
	base.Spec.Dist = data.Uniform{}
	base.LookAhead = 32

	run := func(t *testing.T, iters int, delay, stretch time.Duration) *Result {
		t.Helper()
		cfg := base
		cfg.NumBatches = iters
		if stretch > 0 {
			cfg.Hooks = stretchIterations(stretch)
		}
		srvBase := newServer(cfg.Spec, 3)
		want, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(cfg.Spec, 3)
		trs := newStores(srv, cfg.NumTrainers)
		if delay > 0 {
			for p := range trs {
				trs[p] = slowFetchStore{trs[p], delay}
			}
		}
		res, err := RunLRPP(cfg, trs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := embed.Diff(srvBase, srv); len(d) != 0 {
			t.Fatalf("embedding state diverged at %d ids (first: %v)", len(d), d[0])
		}
		if res.LastLoss != want.LastLoss {
			t.Fatalf("last loss %v, baseline %v", res.LastLoss, want.LastLoss)
		}
		if len(res.Depths) != cfg.NumTrainers {
			t.Fatalf("%d depths for %d trainers", len(res.Depths), cfg.NumTrainers)
		}
		for p, d := range res.Depths {
			if d < admitFloor || d > cfg.LookAhead {
				t.Errorf("trainer %d ended at depth %d, outside [%d, ℒ = %d]", p, d, admitFloor, cfg.LookAhead)
			}
		}
		return res
	}
	waitRows := func(res *Result) (d time.Duration) {
		for _, ts := range res.Stages.Trainers {
			d += ts.Time[StageWaitRows]
		}
		return d / time.Duration(len(res.Stages.Trainers))
	}

	t.Run("free", func(t *testing.T) {
		res := run(t, 64, 0, 10*time.Millisecond)
		t.Logf("depths %v", res.Depths)
		for p, d := range res.Depths {
			if d != admitFloor {
				t.Errorf("trainer %d grew to depth %d over free links, want the floor %d", p, d, admitFloor)
			}
		}
	})
	t.Run("slow-fetch", func(t *testing.T) {
		const n, delay = 200, 20 * time.Millisecond
		short, long := run(t, n, delay, 0), run(t, 2*n, delay, 0)
		steady := (waitRows(long) - waitRows(short)) / n
		t.Logf("depths %v over %d iterations, %v over %d; steady wait-rows %v per iteration (the whole short run %v)",
			short.Depths, n, long.Depths, 2*n, steady, waitRows(short)/n)
		for p, d := range long.Depths {
			if d <= admitFloor {
				t.Errorf("trainer %d stayed at depth %d behind a %v fetch", p, d, delay)
			}
		}
		if steady > delay/20 {
			t.Errorf("steady wait-rows %v per iteration, want at most %v", steady, delay/20)
		}
	})
}

// TestAdmissionGrowsOncePerDepth pins the one-step rule of admission.late:
// iterations admitted before the pipeline filled or before the last growth
// took effect do not grow the depth, so a run of late iterations admitted
// under one depth grows it once, and the depth stops at its limit.
func TestAdmissionGrowsOncePerDepth(t *testing.T) {
	a := admission{depth: 4}
	var grew []int
	for x := 0; x < 40; x++ { // every iteration staged late
		if a.late(x, 7) {
			grew = append(grew, x)
		}
	}
	// 4 grows D to 5, and 4+4 is the first iteration admitted under it;
	// 8 grows it to 6 (first under it: 13), 13 to 7, the limit.
	if want := []int{4, 8, 13}; !slices.Equal(grew, want) || a.depth != 7 {
		t.Fatalf("grew at %v to depth %d, want %v to 7", grew, a.depth, want)
	}
}
