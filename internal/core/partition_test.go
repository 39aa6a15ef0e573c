package core

import (
	"slices"
	"testing"

	"bagpipe/internal/data"
	"bagpipe/internal/tensor"
)

func randomBatch(rng *tensor.RNG, n, feats int, idSpace uint64) *data.Batch {
	b := &data.Batch{}
	for i := 0; i < n; i++ {
		ids := make([]uint64, feats)
		for j := range ids {
			ids[j] = rng.Uint64() % idSpace
		}
		b.Examples = append(b.Examples, data.Example{Cat: ids})
	}
	return b
}

func checkBalanced(t *testing.T, assign []int, p int) {
	t.Helper()
	load := make([]int, p)
	for _, a := range assign {
		if a < 0 || a >= p {
			t.Fatalf("assignment %d out of range", a)
		}
		load[a]++
	}
	lo, hi := load[0], load[0]
	for _, l := range load {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi-lo > 1 {
		t.Fatalf("unbalanced load %v", load)
	}
}

func TestContiguousBalanced(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, n := range []int{1, 7, 16, 33} {
		for _, p := range []int{1, 2, 4, 8} {
			b := randomBatch(rng, n, 3, 100)
			checkBalanced(t, Contiguous{}.Assign(b, p), p)
		}
	}
}

// TestContiguousMatchesFormula holds the chunked split to example i on
// trainer ⌊i·p/n⌋ at every small batch size and trainer count.
func TestContiguousMatchesFormula(t *testing.T) {
	for n := 1; n <= 300; n++ {
		b := &data.Batch{Examples: make([]data.Example, n)}
		for p := 1; p <= MaxTrainers; p++ {
			for i, got := range (Contiguous{}).Assign(b, p) {
				if want := i * p / n; got != want {
					t.Fatalf("n=%d p=%d: example %d on %d, want %d", n, p, i, got, want)
				}
			}
		}
	}
}

func TestContiguousIsContiguous(t *testing.T) {
	b := randomBatch(tensor.NewRNG(2), 16, 2, 100)
	a := Contiguous{}.Assign(b, 4)
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("assignment not monotone: %v", a)
		}
	}
	if a[0] != 0 || a[15] != 3 {
		t.Fatalf("ends wrong: %v", a)
	}
}

func TestRoundRobinBalanced(t *testing.T) {
	b := randomBatch(tensor.NewRNG(3), 10, 2, 100)
	a := RoundRobin{}.Assign(b, 3)
	checkBalanced(t, a, 3)
	if a[0] != 0 || a[1] != 1 || a[2] != 2 || a[3] != 0 {
		t.Fatalf("round robin wrong: %v", a)
	}
}

// TestOwnerOfMatchesModulo holds OwnerOf's division-free path to id % p
// at every trainer count, on ids at the edges of 32 bits and beyond.
func TestOwnerOfMatchesModulo(t *testing.T) {
	rng := tensor.NewRNG(9)
	ids := []uint64{0, 1, 2, 63, 64, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	for range 2000 {
		ids = append(ids, rng.Uint64()>>32, rng.Uint64())
	}
	for p := 1; p <= MaxTrainers+3; p++ {
		for _, id := range ids {
			if got, want := OwnerOf(id, p), int(id%uint64(p)); got != want {
				t.Fatalf("OwnerOf(%d, %d) = %d, want %d", id, p, got, want)
			}
		}
	}
}

func TestCommAwareBeatsRoundRobinOnClusteredBatch(t *testing.T) {
	// Examples whose embeddings are all owned by one trainer: comm-aware
	// should place them there and pay ~0; round-robin pays ~half.
	b := &data.Batch{}
	for i := 0; i < 8; i++ {
		owner := uint64(i / 4)                       // first half owned by trainer 0, rest by 1
		ids := []uint64{owner, owner + 2, owner + 4} // parity = owner
		b.Examples = append(b.Examples, data.Example{Cat: ids})
	}
	aCA := CommAware{}.Assign(b, 2)
	checkBalanced(t, aCA, 2)
	aRR := RoundRobin{}.Assign(b, 2)
	costCA := AssignmentCommCost(b, aCA, 2)
	costRR := AssignmentCommCost(b, aRR, 2)
	if costCA != 0 {
		t.Fatalf("comm-aware cost %d want 0", costCA)
	}
	if costRR <= costCA {
		t.Fatalf("round robin cost %d should exceed comm-aware %d", costRR, costCA)
	}
}

// TestCommAwareNearOptimalOnTinyInstances certifies the placement against
// the exact balanced optimum of its own objective on instances small
// enough to enumerate: within half the optimum on each, within 15 % of it
// summed over the trials.
func TestCommAwareNearOptimalOnTinyInstances(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, p := range []int{2, 3} {
		sum, optSum := 0, 0
		for trial := 0; trial < 40; trial++ {
			b := randomBatch(rng, 7, 3, 10)
			got := CommAware{}.Assign(b, p)
			checkBalanced(t, got, p)
			cost := AssignmentCommCost(b, got, p)
			_, opt := ExactAssign(b, p)
			if cost < opt {
				t.Fatalf("comm-aware %d beat the exact optimum %d: cost accounting broken", cost, opt)
			}
			if 2*cost > 3*opt {
				t.Fatalf("P=%d trial %d: comm-aware cost %d too far above optimum %d", p, trial, cost, opt)
			}
			sum, optSum = sum+cost, optSum+opt
		}
		if float64(sum) > 1.15*float64(optSum) {
			t.Fatalf("P=%d: comm-aware %d pairs over the trials, optimum %d", p, sum, optSum)
		}
	}
}

func TestAssignmentCommCostCountsPerTrainerOnce(t *testing.T) {
	// two examples on the same trainer needing the same foreign id: 1 fetch
	// (id 1 is trainer 1's at p=2)
	b := &data.Batch{Examples: []data.Example{
		{Cat: []uint64{1}}, {Cat: []uint64{1}},
	}}
	cost := AssignmentCommCost(b, []int{0, 0}, 2)
	if cost != 1 {
		t.Fatalf("cost=%d want 1 (dedup per trainer)", cost)
	}
	// split across both trainers: trainer 0 fetches, trainer 1 owns it
	cost = AssignmentCommCost(b, []int{0, 1}, 2)
	if cost != 1 {
		t.Fatalf("cost=%d want 1", cost)
	}
}

func TestCommAwareUnseenIDsUseHashOwnership(t *testing.T) {
	// Ownership is OwnerOf whether or not an id was seen before: comm-aware
	// must place each example with the hash owner of its ids, exactly
	// where the LRPP cache puts the rows. Examples are built so ids of
	// example i all hash to trainer i%2.
	b := &data.Batch{}
	for i := 0; i < 8; i++ {
		par := uint64(i % 2)
		b.Examples = append(b.Examples, data.Example{Cat: []uint64{100 + par, 102 + par, 104 + par}})
	}
	assign := CommAware{}.Assign(b, 2)
	checkBalanced(t, assign, 2)
	if cost := AssignmentCommCost(b, assign, 2); cost != 0 {
		t.Fatalf("comm-aware cost %d want 0 under hash ownership (assign %v)", cost, assign)
	}
}

func TestExactAssignRespectsBalance(t *testing.T) {
	b := randomBatch(tensor.NewRNG(5), 7, 2, 6)
	for _, p := range []int{2, 3} {
		assign, cost := ExactAssign(b, p)
		checkBalanced(t, assign, p)
		if cost < 0 {
			t.Fatal("no solution found")
		}
	}
}

// placementStreams returns the first n batches of the Criteo/100 stream at
// the benchmark's batch size and seed, hot-tail and uniform.
func placementStreams(n int) map[string][]*data.Batch {
	spec := data.CriteoKaggle().Scaled(100).WithEmbDim(16)
	out := map[string][]*data.Batch{}
	for name, s := range map[string]*data.Spec{"hot-tail": spec, "uniform": spec.WithDist(data.Uniform{})} {
		gen := data.NewGenerator(s, 42)
		for i := range n {
			out[name] = append(out[name], gen.Batch(i, 256))
		}
	}
	return out
}

// TestPlacementNeverWorseThanContiguous holds the default placement to its
// floor on every batch of both streams: balanced, and never more pairs
// than the contiguous split.
func TestPlacementNeverWorseThanContiguous(t *testing.T) {
	var pl Placer
	for name, batches := range placementStreams(40) {
		for _, p := range []int{2, 3, 4} {
			var assign []int
			got, base := 0, 0
			for _, b := range batches {
				assign = pl.Assign(nil, assign, b, p)
				checkBalanced(t, assign, p)
				c, cc := AssignmentCommCost(b, assign, p), AssignmentCommCost(b, Contiguous{}.Assign(b, p), p)
				if c > cc {
					t.Fatalf("%s P=%d batch %d: %d pairs, contiguous %d", name, p, b.Index, c, cc)
				}
				got, base = got+c, base+cc
			}
			t.Logf("%s P=%d: %d pairs, contiguous %d (%.1f%% fewer)", name, p, got, base, 100*(1-float64(got)/float64(base)))
		}
	}
}

// TestPlacementCutsHotTailPairs pins the placement's gain where the
// benchmark's hot-tail workloads run: two trainers, the first 60 batches
// of the seed-42 stream.
func TestPlacementCutsHotTailPairs(t *testing.T) {
	var pl Placer
	var assign []int
	got, base := 0, 0
	for _, b := range placementStreams(60)["hot-tail"] {
		assign = pl.Assign(CommAware{}, assign, b, 2)
		got += AssignmentCommCost(b, assign, 2)
		base += AssignmentCommCost(b, Contiguous{}.Assign(b, 2), 2)
	}
	t.Logf("%d pairs, contiguous %d", got, base)
	if float64(got) > 0.75*float64(base) {
		t.Fatalf("%d pairs, contiguous %d: want at least 25%% fewer", got, base)
	}
}

// TestPlacementDeterministic checks that the placement is a function of
// the batch and P: the oracle's path (rows numbered by its window),
// CommAware.Assign (a fresh Placer) and one Placer reused across batches
// and trainer counts give the same Assign, and a warm Placer allocates
// nothing.
func TestPlacementDeterministic(t *testing.T) {
	var reused Placer
	for name, batches := range placementStreams(24) {
		for _, p := range []int{2, 3, 4} {
			o := NewOracle(&SliceSource{Batches: batches}, 8, p)
			var assign []int
			for {
				d, ok := o.Next()
				if !ok {
					break
				}
				fresh := CommAware{}.Assign(d.Batch, p)
				assign = reused.Assign(nil, assign, d.Batch, p)
				if !slices.Equal(d.Assign, fresh) || !slices.Equal(assign, fresh) {
					t.Fatalf("%s P=%d batch %d: oracle, fresh and reused placements differ", name, p, d.Iter)
				}
			}
		}
		b := batches[0]
		assign := reused.Assign(nil, nil, b, 2)
		if n := testing.AllocsPerRun(10, func() { assign = reused.Assign(nil, assign, b, 2) }); n > 0 {
			t.Errorf("%s: warm Placer allocates %v per batch, want 0", name, n)
		}
	}
}

// AssignmentCommCost is the placement objective: the distinct (id,
// trainer) pairs of the batch in which the trainer is not OwnerOf(id),
// each a replica push and a gradient partial in the LRPP cache.
func AssignmentCommCost(b *data.Batch, assign []int, p int) int {
	type key struct {
		id uint64
		t  int
	}
	need := make(map[key]struct{})
	for i, ex := range b.Examples {
		t := assign[i]
		for _, id := range ex.Cat {
			if OwnerOf(id, p) != t {
				need[key{id, t}] = struct{}{}
			}
		}
	}
	return len(need)
}

// ExactAssign solves the balanced min-communication assignment by
// exhaustive search under constraint (ii). Exponential; only for tiny
// instances in tests, where it certifies CommAware.
func ExactAssign(b *data.Batch, p int) ([]int, int) {
	n := b.Size()
	base, extra := n/p, n%p
	best := make([]int, n)
	cur := make([]int, n)
	load := make([]int, p)
	bestCost, big := -1, 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			c := AssignmentCommCost(b, cur, p)
			if bestCost == -1 || c < bestCost {
				bestCost = c
				copy(best, cur)
			}
			return
		}
		for j := 0; j < p; j++ {
			if load[j] > base || load[j] == base && big == extra {
				continue
			}
			cur[i] = j
			if load[j]++; load[j] > base {
				big++
			}
			rec(i + 1)
			if load[j]--; load[j] == base {
				big--
			}
		}
	}
	rec(0)
	return best, bestCost
}
