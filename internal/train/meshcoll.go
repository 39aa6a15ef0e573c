package train

import (
	"fmt"
	"sync"
	"time"

	"bagpipe/internal/collective"
	"bagpipe/internal/transport"
)

// This file is the mesh-based side of the collective layer: the reducer a
// multi-process LRPP worker steps its dense gradients and loss through
// (collective.Collective's mesh implementation). One FusedCollMsg packs
// every dense-parameter segment plus the loss term behind a segment table;
// every rank sends its frame to rank 0, which folds all P contributions per
// segment in rank order from zero — the summation order of the in-process
// collective.Group, so the result bits are identical — and sends the result
// back: 2(P−1) frames per iteration.
//
// Every call is tagged with a sequence number (all ranks make the same
// sequence of collective calls, as with MPI communicators), so arbitrarily
// reordered delivery cannot mismatch rounds. The trainer's receiver
// goroutine feeds inbound frames in through deliverFused.

// CollFused names the one mesh collective strategy (Config.Collective).
const CollFused = "fused"

// meshColl implements collective.Collective over a mesh endpoint.
type meshColl struct {
	rank, n int
	ep      transport.Endpoint
	eng     *lrppEngine // per-class traffic accounting

	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64
	fused   map[uint64]map[int]transport.FusedCollMsg // root: seq → origin → contribution
	fresult map[uint64]transport.FusedCollMsg         // non-root: seq → root's result

	// waited is how long the last FusedAllReduce blocked on other ranks:
	// for their frames at the root, for the result elsewhere. Only the
	// calling trainer loop reads and writes it.
	waited time.Duration
}

func newMeshColl(rank, n int, ep transport.Endpoint, eng *lrppEngine) *meshColl {
	c := &meshColl{
		rank: rank, n: n, ep: ep, eng: eng,
		fused:   make(map[uint64]map[int]transport.FusedCollMsg),
		fresult: make(map[uint64]transport.FusedCollMsg),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// deliverFused routes one inbound fused frame (called from the trainer's
// mesh receiver goroutine): a peer's contribution on rank 0, the root's
// result everywhere else.
func (c *meshColl) deliverFused(m transport.FusedCollMsg) {
	c.mu.Lock()
	if c.rank == 0 {
		byOrigin := c.fused[m.Seq]
		if byOrigin == nil {
			byOrigin = make(map[int]transport.FusedCollMsg, c.n-1)
			c.fused[m.Seq] = byOrigin
		}
		byOrigin[m.Origin] = m
	} else {
		c.fresult[m.Seq] = m
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// gatherFused blocks until all n−1 peer contributions for seq arrived
// (rank 0 only) and removes them.
func (c *meshColl) gatherFused(seq uint64) map[int]transport.FusedCollMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.fused[seq]) < c.n-1 {
		c.cond.Wait()
	}
	byOrigin := c.fused[seq]
	delete(c.fused, seq)
	return byOrigin
}

// awaitFused blocks until the root's result for seq arrived (non-root
// only).
func (c *meshColl) awaitFused(seq uint64) transport.FusedCollMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if m, ok := c.fresult[seq]; ok {
			delete(c.fresult, seq)
			return m
		}
		c.cond.Wait()
	}
}

func (c *meshColl) nextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.seq
	c.seq++
	return s
}

// snapshotFused copies segs and loss into a frame: the caller's buffers are
// live (reused across iterations, mutated by the fold), and Send hands the
// frame to its one receiver. Segments come from the per-length arenas;
// whoever consumes the frame returns them (transport.ReleasePayload), over
// TCP the sending endpoint once it has encoded them.
func snapshotFused(seq uint64, origin int, segs [][]float32, loss []float64) transport.FusedCollMsg {
	m := transport.FusedCollMsg{Seq: seq, Origin: origin,
		Segs: make([][]float32, len(segs)), Loss: append([]float64(nil), loss...)}
	for i, s := range segs {
		if len(s) > 0 {
			m.Segs[i] = transport.Rows(len(s)).Get()
			copy(m.Segs[i], s)
		}
	}
	return m
}

// checkFused panics unless m's shape matches the local call: a mismatch
// means the ranks' collective call sequences diverged, which can only end
// in silent corruption.
func (c *meshColl) checkFused(m transport.FusedCollMsg, segs [][]float32, loss []float64) {
	if len(m.Segs) != len(segs) || len(m.Loss) != len(loss) {
		panic(fmt.Sprintf("train: collective %d: rank %d contributed %d segments / %d loss terms, want %d / %d",
			m.Seq, m.Origin, len(m.Segs), len(m.Loss), len(segs), len(loss)))
	}
	for i, s := range segs {
		if len(m.Segs[i]) != len(s) {
			panic(fmt.Sprintf("train: collective %d: rank %d segment %d carried %d floats, want %d",
				m.Seq, m.Origin, i, len(m.Segs[i]), len(s)))
		}
	}
}

// FusedAllReduce implements collective.Collective: one call reduces every
// dense-parameter segment plus the loss vector across the mesh. Rank 0
// folds all P frames in rank order from zero — the bit-identity contract —
// and sends the result to every peer; every other rank sends its own frame
// to rank 0 and blocks for the result.
func (c *meshColl) FusedAllReduce(rank int, segs [][]float32, loss []float64) {
	if c.n == 1 {
		return
	}
	seq := c.nextSeq()
	if c.rank == 0 {
		start := time.Now()
		byOrigin := c.gatherFused(seq)
		c.waited = time.Since(start)
		// Fold in rank order from zero: segs/loss already hold rank 0's
		// terms. Whole segments at a time through the vector kernels — the
		// same left-to-right per-element summation as the scalar loop.
		for r := 1; r < c.n; r++ {
			m, ok := byOrigin[r]
			if !ok {
				panic(fmt.Sprintf("train: collective %d: rank %d never contributed", seq, r))
			}
			c.checkFused(m, segs, loss)
			for i, x := range segs {
				collective.AddF32(x, m.Segs[i])
			}
			collective.AddF64(loss, m.Loss)
			transport.ReleasePayload(m)
		}
		// One snapshot per destination: Send transfers ownership.
		for r := 1; r < c.n; r++ {
			c.eng.send(c.ep, r, classColl, snapshotFused(seq, 0, segs, loss))
		}
		return
	}
	c.eng.send(c.ep, 0, classColl, snapshotFused(seq, c.rank, segs, loss))
	start := time.Now()
	m := c.awaitFused(seq)
	c.waited = time.Since(start)
	c.checkFused(m, segs, loss)
	for i := range segs {
		copy(segs[i], m.Segs[i])
	}
	copy(loss, m.Loss)
	transport.ReleasePayload(m)
}
