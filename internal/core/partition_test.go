package core

import (
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

func TestOwnershipByHash(t *testing.T) {
	own := OwnershipByHash([]uint64{0, 1, 2, 3, 4}, 2)
	if own[0] != 0 || own[1] != 1 || own[4] != 0 {
		t.Fatalf("ownership %v", own)
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
	ids := []uint64{0, 1, 2, 3, 4, 5}
	own := OwnershipByHash(ids, 2)
	ca := &CommAware{Own: own}
	aCA := ca.Assign(b, 2)
	checkBalanced(t, aCA, 2)
	aRR := RoundRobin{}.Assign(b, 2)
	costCA := AssignmentCommCost(b, aCA, 2, own)
	costRR := AssignmentCommCost(b, aRR, 2, own)
	if costCA != 0 {
		t.Fatalf("comm-aware cost %d want 0", costCA)
	}
	if costRR <= costCA {
		t.Fatalf("round robin cost %d should exceed comm-aware %d", costRR, costCA)
	}
}

func TestCommAwareNearOptimalOnTinyInstances(t *testing.T) {
	rng := tensor.NewRNG(11)
	for trial := 0; trial < 15; trial++ {
		b := randomBatch(rng, 6, 2, 8)
		own := OwnershipByHash([]uint64{0, 1, 2, 3, 4, 5, 6, 7}, 2)
		ca := &CommAware{Own: own}
		greedy := ca.Assign(b, 2)
		checkBalanced(t, greedy, 2)
		gCost := AssignmentCommCost(b, greedy, 2, own)
		_, optCost := ExactAssign(b, 2, own)
		if gCost < optCost {
			t.Fatalf("greedy %d beat the exact optimum %d — cost accounting broken", gCost, optCost)
		}
		// greedy within 50% of optimal on these tiny instances
		if float64(gCost) > float64(optCost)*1.5+1 {
			t.Fatalf("trial %d: greedy cost %d too far above optimum %d", trial, gCost, optCost)
		}
	}
}

func TestAssignmentCommCostCountsPerTrainerOnce(t *testing.T) {
	// two examples on the same trainer needing the same foreign id: 1 fetch
	b := &data.Batch{Examples: []data.Example{
		{Cat: []uint64{1}}, {Cat: []uint64{1}},
	}}
	own := Ownership{1: 1}
	cost := AssignmentCommCost(b, []int{0, 0}, 2, own)
	if cost != 1 {
		t.Fatalf("cost=%d want 1 (dedup per trainer)", cost)
	}
	// split across both trainers: trainer 0 fetches, trainer 1 owns it
	cost = AssignmentCommCost(b, []int{0, 1}, 2, own)
	if cost != 1 {
		t.Fatalf("cost=%d want 1", cost)
	}
}

func TestOwnershipHashFallback(t *testing.T) {
	// IDs never seen in the lookahead window are absent from the map; their
	// ownership must resolve to the hash partition, not fall through
	// undefined.
	own := Ownership{10: 1} // id 10 pinned to trainer 1, everything else unseen
	if got := own.Owner(10, 4); got != 1 {
		t.Fatalf("mapped id owner %d want 1", got)
	}
	for _, id := range []uint64{0, 3, 7, 999} {
		if got, want := own.Owner(id, 4), OwnerOf(id, 4); got != want {
			t.Fatalf("unseen id %d owner %d want hash owner %d", id, got, want)
		}
	}
	if OwnerOf(7, 4) != 3 {
		t.Fatalf("OwnerOf(7,4)=%d want 3", OwnerOf(7, 4))
	}
}

func TestCommAwareUnseenIDsUseHashOwnership(t *testing.T) {
	// A batch whose ids are entirely absent from the ownership map (they
	// first appear beyond the lookahead window): comm-aware must place each
	// example with the hash owner of its ids, exactly where the LRPP cache
	// will put the rows. Examples are built so ids of example i all hash to
	// trainer i%2.
	b := &data.Batch{}
	for i := 0; i < 8; i++ {
		par := uint64(i % 2)
		b.Examples = append(b.Examples, data.Example{Cat: []uint64{100 + par, 102 + par, 104 + par}})
	}
	ca := &CommAware{Own: Ownership{}} // nothing seen in the window
	assign := ca.Assign(b, 2)
	checkBalanced(t, assign, 2)
	if cost := AssignmentCommCost(b, assign, 2, ca.Own); cost != 0 {
		t.Fatalf("comm-aware cost %d want 0 under hash fallback (assign %v)", cost, assign)
	}
}

func TestExactAssignRespectsBalance(t *testing.T) {
	b := randomBatch(tensor.NewRNG(5), 4, 2, 6)
	own := OwnershipByHash([]uint64{0, 1, 2, 3, 4, 5}, 2)
	assign, cost := ExactAssign(b, 2, own)
	checkBalanced(t, assign, 2)
	if cost < 0 {
		t.Fatal("no solution found")
	}
}

// ExactAssign solves the balanced min-communication assignment by
// exhaustive search. Exponential; only for tiny instances in tests, where
// it certifies the greedy CommAware heuristic.
func ExactAssign(b *data.Batch, p int, own Ownership) ([]int, int) {
	n := b.Size()
	capPer := (n + p - 1) / p
	best := make([]int, n)
	cur := make([]int, n)
	load := make([]int, p)
	bestCost := -1
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			c := AssignmentCommCost(b, cur, p, own)
			if bestCost == -1 || c < bestCost {
				bestCost = c
				copy(best, cur)
			}
			return
		}
		for j := 0; j < p; j++ {
			if load[j] >= capPer {
				continue
			}
			cur[i] = j
			load[j]++
			rec(i + 1)
			load[j]--
		}
	}
	rec(0)
	return best, bestCost
}

// OwnershipByHash assigns each id to hash(id) % p, the way a partitioned
// cache shards its contents.
func OwnershipByHash(ids []uint64, p int) Ownership {
	o := make(Ownership, len(ids))
	for _, id := range ids {
		o[id] = OwnerOf(id, p)
	}
	return o
}
