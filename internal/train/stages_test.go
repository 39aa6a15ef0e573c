package train

import (
	"math"
	"runtime"
	"testing"

	"bagpipe/internal/transport"
)

// The stage clock partitions every trainer loop: the loop stages' shares sum
// to 1 and the loop's wall time fits in the run's. In both engine modes the
// compute stages, the collective, the service goroutines and the
// dispatcher's two admission waits (the ℒ window's token, the depth's
// credit) are charged, each trainer reports an admission depth in [floor,
// ℒ], and the process CPU is read where getrusage exists.
func TestStageClock(t *testing.T) {
	cfg := tinyConfig()
	check := func(t *testing.T, res *Result, want ...int) {
		t.Helper()
		st := res.Stages
		if len(st.Trainers) != len(want) {
			t.Fatalf("clock holds %d trainers, want %d", len(st.Trainers), len(want))
		}
		for i, ts := range st.Trainers {
			if ts.Trainer != want[i] {
				t.Errorf("entry %d is trainer %d, want %d", i, ts.Trainer, want[i])
			}
			var sum float64
			for s := Stage(0); s < NumStages; s++ {
				if ts.Time[s] < 0 {
					t.Errorf("trainer %d: %v is %v", ts.Trainer, s, ts.Time[s])
				}
				if s < numLoopStages {
					sum += ts.Share(s)
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("trainer %d: loop shares sum to %v, want 1", ts.Trainer, sum)
			}
			if ts.Loop() > res.Elapsed {
				t.Errorf("trainer %d: loop %v outlasts the run's %v", ts.Trainer, ts.Loop(), res.Elapsed)
			}
			for _, s := range []Stage{StageForwardDense, StageSparse, StageBackwardDense, StageStep, StageBusyStager, StageBusyMaint, StageWaitToken, StageWaitDepth} {
				if ts.Time[s] <= 0 {
					t.Errorf("trainer %d: %v never charged", ts.Trainer, s)
				}
			}
			if ts.Time[StageCollWait]+ts.Time[StageCollFold] <= 0 {
				t.Errorf("trainer %d: the collective never charged", ts.Trainer)
			}
		}
		if len(res.Depths) != len(want) {
			t.Fatalf("%d admission depths for %d trainers", len(res.Depths), len(want))
		}
		for i, d := range res.Depths {
			if d < min(cfg.LookAhead, admitFloor) || d > cfg.LookAhead {
				t.Errorf("trainer %d: admission depth %d outside [%d, ℒ = %d]", want[i], d, min(cfg.LookAhead, admitFloor), cfg.LookAhead)
			}
		}
		if runtime.GOOS == "linux" && st.CPU <= 0 {
			t.Errorf("process CPU %v over the run", st.CPU)
		}
	}
	t.Run("single-process", func(t *testing.T) {
		res, err := RunLRPP(cfg, newStores(newServer(cfg.Spec, 3), 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, 0, 1)
	})
	t.Run("worker", func(t *testing.T) {
		for p, res := range runWorkers(t, cfg, newStores(newServer(cfg.Spec, 3), 2), transport.NewInprocMesh(2)) {
			check(t, res, p)
		}
	})
}
