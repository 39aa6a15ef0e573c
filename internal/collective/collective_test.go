package collective

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// run spawns n ranks executing fn and waits for all of them.
func run(n int, fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(r)
	}
	wg.Wait()
}

func TestAllReduceSum(t *testing.T) {
	g := NewGroup(4)
	results := make([][]float32, 4)
	run(4, func(rank int) {
		x := []float32{float32(rank), 1}
		g.AllReduceSum(rank, x)
		results[rank] = x
	})
	for rank, x := range results {
		if x[0] != 6 || x[1] != 4 {
			t.Fatalf("rank %d got %v want [6 4]", rank, x)
		}
	}
}

func TestAllReduceSumRepeated(t *testing.T) {
	g := NewGroup(3)
	const iters = 50
	run(3, func(rank int) {
		for i := 0; i < iters; i++ {
			x := []float32{1}
			g.AllReduceSum(rank, x)
			if x[0] != 3 {
				t.Errorf("iter %d rank %d got %v", i, rank, x[0])
				return
			}
		}
	})
}

func TestAllReduceSum64RankOrderedFold(t *testing.T) {
	// The float64 reduction must equal the left fold in rank order starting
	// from zero — the exact sum a single-process loop over ranks computes.
	// Values are chosen so different fold orders give different float64
	// bit patterns.
	vals := []float64{1e-17, 1.0, -1.0, 3e-17}
	var want float64
	for _, v := range vals {
		want += v
	}
	g := NewGroup(4)
	results := make([]float64, 4)
	run(4, func(rank int) {
		x := []float64{vals[rank]}
		g.AllReduceSum64(rank, x)
		results[rank] = x[0]
	})
	for rank, got := range results {
		if got != want {
			t.Fatalf("rank %d got %v want %v (fold-order dependent)", rank, got, want)
		}
	}
}

// TestFusedAllReduceMatchesPerSegment pins the fused round to the exact
// bits of the per-segment calls it replaces: same rank-ordered fold per
// segment, same float64 loss fold, values chosen so any other fold order
// gives different bit patterns.
func TestFusedAllReduceMatchesPerSegment(t *testing.T) {
	const n = 4
	segVals := [][]float32{ // [rank][seg]
		{1e-8, 1},
		{1, -1},
		{-1, 3e-8},
		{3e-8, 1e-8},
	}
	lossVals := []float64{1e-17, 1.0, -1.0, 3e-17}

	// Reference: the per-segment primitives.
	ref := NewGroup(n)
	wantSegs := make([][][]float32, n) // [rank][seg]
	wantLoss := make([][]float64, n)
	run(n, func(rank int) {
		a := []float32{segVals[rank][0]}
		b := []float32{segVals[rank][1]}
		ref.AllReduceSum(rank, a)
		ref.AllReduceSum(rank, b)
		l := []float64{lossVals[rank]}
		ref.AllReduceSum64(rank, l)
		wantSegs[rank] = [][]float32{a, b}
		wantLoss[rank] = l
	})

	g := NewGroup(n)
	run(n, func(rank int) {
		segs := [][]float32{{segVals[rank][0]}, {segVals[rank][1]}}
		loss := []float64{lossVals[rank]}
		g.FusedAllReduce(rank, segs, loss)
		for i := range segs {
			if segs[i][0] != wantSegs[rank][i][0] {
				t.Errorf("rank %d seg %d: fused %v != per-segment %v", rank, i, segs[i][0], wantSegs[rank][i][0])
			}
		}
		if loss[0] != wantLoss[rank][0] {
			t.Errorf("rank %d loss: fused %v != per-segment %v", rank, loss[0], wantLoss[rank][0])
		}
	})
}

// TestFusedAllReduceSingleRank: n=1 is a no-op that leaves inputs alone.
func TestFusedAllReduceSingleRank(t *testing.T) {
	g := NewGroup(1)
	segs := [][]float32{{1, 2}}
	loss := []float64{0.5}
	g.FusedAllReduce(0, segs, loss)
	if segs[0][0] != 1 || segs[0][1] != 2 || loss[0] != 0.5 {
		t.Fatalf("single-rank fused reduce mutated inputs: %v %v", segs, loss)
	}
}

func TestAllReduceMixedPhases(t *testing.T) {
	// Alternating float32 and float64 collectives on one group must not
	// bleed between phases.
	g := NewGroup(2)
	run(2, func(rank int) {
		for i := 0; i < 20; i++ {
			x := []float32{1}
			g.AllReduceSum(rank, x)
			if x[0] != 2 {
				t.Errorf("f32 phase %d rank %d got %v", i, rank, x[0])
				return
			}
			y := []float64{0.5}
			g.AllReduceSum64(rank, y)
			if y[0] != 1 {
				t.Errorf("f64 phase %d rank %d got %v", i, rank, y[0])
				return
			}
		}
	})
}

func TestAllReduceSingleRankNoop(t *testing.T) {
	g := NewGroup(1)
	x := []float32{5}
	g.AllReduceSum(0, x)
	if x[0] != 5 {
		t.Fatalf("got %v", x[0])
	}
}

func TestAllReduceDeterministicOrder(t *testing.T) {
	// values chosen so float addition order matters; per-rank slots force
	// rank-order summation, so every run and every rank must agree exactly.
	vals := []float32{1e8, -1e8, 3.14159, 2.71828}
	var first []float32
	for trial := 0; trial < 20; trial++ {
		g := NewGroup(4)
		results := make([][]float32, 4)
		run(4, func(rank int) {
			x := []float32{vals[rank]}
			g.AllReduceSum(rank, x)
			results[rank] = x
		})
		for rank := 1; rank < 4; rank++ {
			if results[rank][0] != results[0][0] {
				t.Fatal("ranks disagree")
			}
		}
		if trial == 0 {
			first = results[0]
		} else if results[0][0] != first[0] {
			t.Fatal("nondeterministic across runs")
		}
	}
}

func TestGroupValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroup(0)
}

func TestRankOutOfRangePanics(t *testing.T) {
	g := NewGroup(2)
	done := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
			close(done)
		}()
		g.AllReduceSum(5, []float32{1})
	}()
	<-done
	for name, call := range map[string]func(){
		"ReduceScatter":  func() { g.ReduceScatter(2, nil, nil, nil) },
		"AllGather":      func() { g.AllGather(-1, nil, nil) },
		"FusedAllReduce": func() { g.FusedAllReduce(2, nil, nil) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of [0,2)") {
					t.Errorf("%s with a rank outside the group: %v", name, r)
				}
			}()
			call()
		}()
	}
}

// AllReduceSum64 is the float64 all-reduce: per-rank values summed in rank
// order from zero. No engine calls it; it is the bit reference the tests
// hold FusedAllReduce's loss fold to, so every trainer reports the
// identical full-batch loss the baseline would.
func (g *Group) AllReduceSum64(rank int, x []float64) { allReduceSum(g, rank, x) }
