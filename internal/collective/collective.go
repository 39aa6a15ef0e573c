// Package collective implements the collective-communication primitive
// recommendation-model training uses: all-reduce for dense gradients and
// loss terms.
//
// The functional implementation synchronizes in-process trainer goroutines
// deterministically: each rank deposits its contribution into a per-rank
// slot and every rank folds the slots in rank order, so results are
// bit-identical run to run regardless of goroutine scheduling. That
// rank-ordered fold is the package's contract, not an implementation
// detail: the Collective interface names it, and the mesh-based reducer
// multi-process worker runs use (internal/train's meshColl: one fused frame
// per rank per round, folded at rank 0 over transport.Mesh) reproduces the
// identical summation order, which is what keeps distributed runs
// bit-identical to single-process ones.
package collective

import (
	"fmt"
	"sync"
)

// Collective is the interface the LRPP trainers step every iteration's
// dense gradients and loss term through: one *fused* all-reduce covering
// all parameter segments plus the float64 loss, instead of one collective
// round per parameter. Implementations must fold contributions per segment
// in rank order starting from zero — the contract that keeps every
// engine × fabric combination bit-identical. In-process trainer goroutines
// share a Group; multi-process workers use internal/train's mesh-based
// reducer, which reproduces the identical summation order.
type Collective interface {
	// FusedAllReduce sums segs[i] element-wise across all ranks into every
	// rank's segs[i] in place, and likewise loss. All ranks must pass
	// congruent shapes; the call doubles as the iteration barrier.
	FusedAllReduce(rank int, segs [][]float32, loss []float64)
}

// AddF32 folds src into dst element-wise (dst[i] += src[i]). This is THE
// fold kernel of every rank-ordered reduction in the system — collective
// rounds, the mesh reducer, delayed-sync gradient merges — written
// so the compiler eliminates the bounds checks and can vectorize: one
// length assertion up front, then a 4-way unrolled body over full slices.
// Element-wise independence means using it preserves any caller's
// summation order exactly.
func AddF32(dst, src []float32) { addVec(dst, src) }

// AddF64 is AddF32 for float64 vectors (loss terms).
func AddF64(dst, src []float64) { addVec(dst, src) }

// addVec is the shared kernel: one length assertion, then a 4-way unrolled
// body over full-slice windows so the compiler drops the per-element bounds
// checks.
func addVec[T float32 | float64](dst, src []T) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("collective: fold length mismatch %d != %d", len(src), len(dst)))
	}
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// Group coordinates a fixed set of n ranks performing collectives. A Group
// is reusable: ranks may call the same collective repeatedly, but all ranks
// must make the same sequence of calls (as with MPI communicators).
type Group struct {
	n int

	mu       sync.Mutex
	cond     *sync.Cond
	slots    []any
	joined   int
	departed int
	complete bool
	gen      uint64

	// fused holds each rank's persistent snapshot buffers for
	// FusedAllReduce, reused round over round. Safe without extra locking:
	// rank r writes only fused[r], peers read it strictly between that
	// rank's arrive and the phase's depart barrier (both under mu), and no
	// rank can start the next round before every rank has departed.
	fused []fusedContrib
}

// NewGroup returns a group of n ranks.
func NewGroup(n int) *Group {
	if n <= 0 {
		panic(fmt.Sprintf("collective: group size %d", n))
	}
	g := &Group{n: n, slots: make([]any, n), fused: make([]fusedContrib, n)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.n }

// arrive deposits data into rank's slot and blocks until all ranks of this
// generation have arrived. Returns a stable snapshot of all slots. Every
// arrive must be paired with a depart. Slots are untyped so collectives
// over different element types (float32 gradients, float64 loss terms)
// share one synchronization core; all ranks of a phase must contribute the
// same type.
func (g *Group) arrive(rank int, data any) []any {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rank < 0 || rank >= g.n {
		panic(fmt.Sprintf("collective: rank %d out of [0,%d)", rank, g.n))
	}
	// a rank racing ahead into the next collective waits for the previous
	// phase to fully drain first.
	for g.complete {
		g.cond.Wait()
	}
	if g.slots[rank] != nil {
		panic(fmt.Sprintf("collective: rank %d arrived twice in one phase", rank))
	}
	g.slots[rank] = data
	g.joined++
	if g.joined == g.n {
		g.complete = true
		g.cond.Broadcast()
	} else {
		for !g.complete {
			g.cond.Wait()
		}
	}
	return g.slots
}

// depart releases the rank from the phase; the last one out resets the
// group for the next collective, and earlier leavers block until then so
// no rank can lap the group.
func (g *Group) depart() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.departed++
	if g.departed == g.n {
		g.joined, g.departed = 0, 0
		g.complete = false
		clear(g.slots)
		g.gen++
		g.cond.Broadcast()
		return
	}
	myGen := g.gen
	for g.gen == myGen {
		g.cond.Wait()
	}
}

// allReduceSum sums the equal-length vectors contributed by every rank and
// writes the total into each rank's x in place. Summation is in rank order
// starting from zero, so every rank computes bit-identical results.
func allReduceSum[T float32 | float64](g *Group, rank int, x []T) {
	if g.n == 1 {
		return
	}
	contrib := append([]T(nil), x...)
	slots := g.arrive(rank, contrib)
	// Rank-order fold via the vector kernel: copy rank 0's contribution,
	// add ranks 1..n−1 — element-independent, so the per-element summation
	// order (and therefore the bits) match the old per-element loop.
	copy(x, slots[0].([]T))
	for r := 1; r < g.n; r++ {
		addVec(x, slots[r].([]T))
	}
	g.depart()
}

// AllReduceSum is the float32 all-reduce used for dense gradients.
func (g *Group) AllReduceSum(rank int, x []float32) { allReduceSum(g, rank, x) }

// fusedContrib is one rank's snapshot of a fused round: every gradient
// segment plus the loss vector, deposited as a single slot.
type fusedContrib struct {
	segs [][]float32
	loss []float64
}

// FusedAllReduce implements Collective: one arrive/depart round reduces
// every segment and the loss together, folding whole segments in rank
// order from zero — copy rank 0's segment, then AddF32 each later rank's —
// which is the identical left-to-right per-element summation as
// per-segment AllReduceSum calls, at one synchronization instead of
// len(segs)+1 and without the per-element slot type assertions the old
// triple loop paid. Each rank's contribution snapshot lives in a
// per-rank buffer reused across rounds (see Group.fused), so the steady
// state allocates nothing.
func (g *Group) FusedAllReduce(rank int, segs [][]float32, loss []float64) {
	if g.n == 1 {
		return
	}
	if rank < 0 || rank >= g.n {
		panic(fmt.Sprintf("collective: rank %d out of [0,%d)", rank, g.n))
	}
	c := &g.fused[rank]
	if cap(c.segs) < len(segs) {
		c.segs = make([][]float32, len(segs))
	}
	c.segs = c.segs[:len(segs)]
	for i, s := range segs {
		buf := c.segs[i]
		if cap(buf) < len(s) {
			buf = make([]float32, len(s))
		}
		buf = buf[:len(s)]
		copy(buf, s)
		c.segs[i] = buf
	}
	c.loss = append(c.loss[:0], loss...)
	slots := g.arrive(rank, c)
	first := slots[0].(*fusedContrib)
	for i, x := range segs {
		copy(x, first.segs[i][:len(x)])
	}
	copy(loss, first.loss)
	for r := 1; r < g.n; r++ {
		peer := slots[r].(*fusedContrib)
		for i, x := range segs {
			AddF32(x, peer.segs[i][:len(x)])
		}
		AddF64(loss, peer.loss)
	}
	g.depart()
}
