// Package collective implements the chunk-owned round recommendation-model
// training steps its dense gradients and loss terms through. Rank r owns
// the r-th contiguous chunk of the concatenated gradient segments (Chunk):
// a reduce-scatter folds each chunk on its owner in rank order from zero —
// the contract that makes every result bit-identical run to run, fabric to
// fabric and to the baseline's AllReduceSum — the owner steps its chunk
// (ZeRO stage 1), and an all-gather returns the updated parameters. Group
// runs the round in process over the peers' live buffers; internal/train's
// meshColl runs it over transport.Mesh.
package collective

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Collective is the round, called ReduceScatter then AllGather by every
// rank with congruent shapes; a rank steps its chunk between the two and
// may rewrite grads and loss once AllGather returns. Each call returns how
// long the rank waited for the others.
type Collective interface {
	// ReduceScatter folds every rank's grads over this rank's chunk into
	// sum, and every rank's loss terms, in rank order from zero.
	ReduceScatter(rank int, grads [][]float32, loss []float64, sum []float32) time.Duration
	// AllGather copies the other ranks' chunks of their values into values
	// and writes the loss total into loss.
	AllGather(rank int, values [][]float32, loss []float64) time.Duration
}

// Chunk returns rank r's chunk [lo, hi) of an n-float concatenation split
// across p ranks: the r-th contiguous 1/p, so chunk lengths differ by at
// most one.
func Chunk(n, p, r int) (lo, hi int) { return r * n / p, (r + 1) * n / p }

// Len returns the length of the concatenation of segs.
func Len(segs [][]float32) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// Pieces calls fn, in order, for each segment's stretch of the
// concatenation's [lo, hi): segment i's floats [a, b), which sit at offset
// off of the stretch.
func Pieces(segs [][]float32, lo, hi int, fn func(i, a, b, off int)) {
	base := 0
	for i, s := range segs {
		if base >= hi {
			return
		}
		if a, b := max(lo-base, 0), min(hi-base, len(s)); a < b {
			fn(i, a, b, base+a-lo)
		}
		base += len(s)
	}
}

// FoldSpan folds the concatenation's floats [lo, lo+len(dst)) into dst as
// Fold does.
func FoldSpan(dst []float32, segs [][]float32, lo int, first bool) {
	Pieces(segs, lo, lo+len(dst), func(i, a, b, off int) {
		Fold(dst[off:off+b-a], segs[i][a:b], first)
	})
}

// Scatter copies src into the concatenation of segs at lo.
func Scatter(segs [][]float32, lo int, src []float32) {
	Pieces(segs, lo, lo+len(src), func(i, a, b, off int) {
		copy(segs[i][a:b], src[off:])
	})
}

// Fold is one step of the rank-ordered fold from zero: the first rank's
// terms are copied into dst, every later rank's added.
func Fold[T float32 | float64](dst, src []T, first bool) {
	if first && len(src) == len(dst) {
		copy(dst, src)
		return
	}
	addVec(dst, src) // or panics on the length mismatch
}

// AddF32 folds src into dst element-wise (dst[i] += src[i]). This is THE
// fold kernel of every rank-ordered reduction in the system — collective
// rounds, delayed-sync gradient merges — written so the compiler eliminates
// the bounds checks and can vectorize: one length assertion up front, then
// a 4-way unrolled body over full slices. Element-wise independence means
// using it preserves any caller's summation order exactly.
func AddF32(dst, src []float32) { addVec(dst, src) }

// addVec is AddF32's kernel for float32 and float64 vectors.
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
	released time.Time // when the last rank of the current barrier came

	// live[r] is what rank r lends its peers in a round, written only by r
	// and read by peers only between the barriers that bracket it (see
	// ReduceScatter and AllGather), and r's own accumulators.
	live []member
}

type member struct {
	grads, values [][]float32
	loss, lossSum []float64
	sum           []float32 // FusedAllReduce's chunk
}

// NewGroup returns a group of n ranks.
func NewGroup(n int) *Group {
	if n <= 0 {
		panic(fmt.Sprintf("collective: group size %d", n))
	}
	g := &Group{n: n, slots: make([]any, n), live: make([]member, n)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// member returns rank's entry in live, refusing a rank outside the group.
func (g *Group) member(rank int) *member {
	if rank < 0 || rank >= g.n {
		panic(fmt.Sprintf("collective: rank %d out of [0,%d)", rank, g.n))
	}
	return &g.live[rank]
}

// arrive deposits data into rank's slot and blocks until all ranks of this
// generation have arrived. It returns how long the rank waited for the
// last one. Every arrive must be paired with a depart. Slots are untyped so
// collectives over different element types share one synchronization core;
// all ranks of a phase must contribute the same type.
func (g *Group) arrive(rank int, data any) time.Duration {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.member(rank)
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
		g.released = now
		g.cond.Broadcast()
		return 0
	}
	for !g.complete {
		g.cond.Wait()
	}
	return max(g.released.Sub(now), 0)
}

// depart releases the rank from the phase; the last one out resets the
// group for the next collective, and earlier leavers block until then so
// no rank can lap the group. It returns how long the rank waited for the
// last one.
func (g *Group) depart() time.Duration {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.departed++
	if g.departed == g.n {
		g.joined, g.departed = 0, 0
		g.complete = false
		clear(g.slots)
		g.gen++
		g.released = now
		g.cond.Broadcast()
		return 0
	}
	myGen := g.gen
	for g.gen == myGen {
		g.cond.Wait()
	}
	return max(g.released.Sub(now), 0)
}

// allReduceSum sums the equal-length vectors contributed by every rank and
// writes the total into each rank's x in place. Summation is in rank order
// starting from zero, so every rank computes bit-identical results.
func allReduceSum[T float32 | float64](g *Group, rank int, x []T) {
	if g.n == 1 {
		return
	}
	contrib := append([]T(nil), x...)
	g.arrive(rank, contrib)
	for r := range g.n {
		Fold(x, g.slots[r].([]T), r == 0)
	}
	g.depart()
}

// AllReduceSum is the float32 all-reduce of the baseline engine: every rank
// snapshots its vector and folds all of them. The baseline keeps it as the
// reference the chunk-owned round is certified against.
func (g *Group) AllReduceSum(rank int, x []float32) { allReduceSum(g, rank, x) }

// ReduceScatter implements Collective: every rank lends its grads and loss
// at the arrive barrier, and each owner folds its chunk straight out of
// them. No rank rewrites what it lent before AllGather's depart barrier.
func (g *Group) ReduceScatter(rank int, grads [][]float32, loss []float64, sum []float32) time.Duration {
	m := g.member(rank)
	m.grads, m.loss = grads, loss
	wait := g.arrive(rank, m)
	lo, _ := Chunk(Len(grads), g.n, rank)
	if len(m.lossSum) != len(loss) {
		m.lossSum = make([]float64, len(loss))
	}
	for q := range g.n {
		FoldSpan(sum, g.live[q].grads, lo, q == 0)
		Fold(m.lossSum, g.live[q].loss, q == 0)
	}
	return wait
}

// AllGather implements Collective: past the depart barrier every owner has
// stepped its chunk, and it rewrites the chunk only in the next round's
// step, after the next arrive barrier, which needs every rank to have
// gathered.
func (g *Group) AllGather(rank int, values [][]float32, loss []float64) time.Duration {
	m := g.member(rank)
	m.values = values
	wait := g.depart()
	for q := range g.n {
		if src := g.live[q].values; q != rank {
			lo, hi := Chunk(Len(values), g.n, q)
			Pieces(values, lo, hi, func(i, a, b, _ int) { copy(values[i][a:b], src[i][a:b]) })
		}
	}
	copy(loss, m.lossSum)
	return wait
}

// FusedAllReduce sums segs and loss element-wise across all ranks into
// every rank's segs and loss in place: the chunk-owned round with no step,
// each owner writing its summed chunk back for the all-gather. A closing
// barrier holds every rank until all have gathered, because a caller
// rewrites its segments next.
func (g *Group) FusedAllReduce(rank int, segs [][]float32, loss []float64) {
	m := g.member(rank)
	lo, hi := Chunk(Len(segs), g.n, rank)
	m.sum = slices.Grow(m.sum[:0], hi-lo)[:hi-lo]
	g.ReduceScatter(rank, segs, loss, m.sum)
	Scatter(segs, lo, m.sum)
	g.AllGather(rank, segs, loss)
	g.arrive(rank, m)
	g.depart()
}
