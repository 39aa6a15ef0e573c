package train

import (
	"fmt"
	"sync"
	"time"

	"bagpipe/internal/collective"
	"bagpipe/internal/transport"
)

// This file is the chunk-owned round (collective.Collective) of a
// multi-process LRPP worker: each ordered pair of ranks exchanges one
// FusedCollMsg per phase, 2(P−1) frames per rank per round. A frame waits
// in a fixed slot per phase and origin that accepts only the round the
// phase folds next: the current round, or the next for a reduce-scatter
// frame that comes during the all-gather. No peer gets further ahead, since
// its round x+1 ends only with this rank's all-gather frame of x+1, and for
// the same reason no frame of a phase can come while the trainer folds that
// phase's slots.
//
// An all-gather frame carries its chunk XOR-coded against the chunk its
// owner sent the round before (collective.Pack): every receiver holds
// exactly those bits in its own parameters — the previous all-gather put
// them there, and before the first one every rank holds the same initial
// parameters — so it XORs the frame into them (collective.Unpack) and
// ends with the owner's new bits. The owner keeps what it sent in prev.

// CollFused names the one mesh collective strategy (Config.Collective).
const CollFused = "fused"

const (
	phaseReduce = iota
	phaseGather
	numPhases
)

// meshColl implements collective.Collective over a mesh endpoint.
type meshColl struct {
	rank, n int
	total   int      // floats in the concatenated segments
	nLoss   int      // loss terms per rank
	peers   rankBits // every rank but this one
	ep      transport.Endpoint
	eng     *lrppEngine // per-class traffic accounting

	// slots[ph][origin] holds origin's frame of round next[ph] in phase ph
	// once filled[ph] has origin's bit; the receiver goroutine files them
	// under mu, the trainer folds them after await.
	mu     sync.Mutex
	cond   sync.Cond
	slots  [numPhases][]transport.FusedCollMsg
	filled [numPhases]rankBits
	next   [numPhases]uint64

	// lossOut[x%2] is this rank's loss terms of round x: its reduce-scatter
	// frames of the round share it, and the receivers read it before the
	// round after next, the first to rewrite it. lossSum is the folded
	// total, from ReduceScatter to AllGather.
	lossOut [2][]float64
	lossSum []float64

	// prev is this rank's chunk of the parameters as its last all-gather
	// frame carried them: the initial parameters before the first.
	prev []float32
}

// newMeshColl builds rank's side of the round over the parameters values,
// as every rank initialises them, and nLoss loss terms.
func newMeshColl(rank, n int, ep transport.Endpoint, eng *lrppEngine, values [][]float32, nLoss int) *meshColl {
	c := &meshColl{rank: rank, n: n, total: collective.Len(values), nLoss: nLoss, ep: ep, eng: eng,
		peers: (rankBits(1)<<uint(n) - 1) &^ (1 << uint(rank)), lossSum: make([]float64, nLoss)}
	lo, hi := collective.Chunk(c.total, n, rank)
	c.prev = make([]float32, hi-lo)
	collective.FoldSpan(c.prev, values, lo, true)
	c.cond.L = &c.mu
	for ph := range c.slots {
		c.slots[ph] = make([]transport.FusedCollMsg, n)
	}
	for x := range c.lossOut {
		c.lossOut[x] = make([]float64, nLoss)
	}
	return c
}

// deliver files one inbound frame in its slot (called from the trainer's
// mesh receiver goroutine). A frame of another round than its phase folds
// next, from an origin that is not a peer or has already delivered that
// round and phase, or whose float or loss count differs from the chunk it
// carries is refused, before anything folds or unpacks. Over TCP the
// decoder has already refused an all-gather coding that does not code its
// float count (collective.CheckPacked).
func (c *meshColl) deliver(m transport.FusedCollMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph, name, owner, nLoss, floats := phaseReduce, "reduce-scatter", c.rank, c.nLoss, len(m.Data)
	if m.Gather {
		ph, name, owner, nLoss, floats = phaseGather, "all-gather", m.Origin, 0, m.Floats
	}
	lo, hi := collective.Chunk(c.total, c.n, owner)
	switch {
	case m.Seq != c.next[ph]:
		return fmt.Errorf("train: trainer %d: %s frame from trainer %d for round %d, expected round %d",
			c.rank, name, m.Origin, m.Seq, c.next[ph])
	case m.Origin < 0 || m.Origin >= c.n || m.Origin == c.rank:
		return fmt.Errorf("train: trainer %d: %s frame for round %d from trainer %d, not a peer of %d trainers",
			c.rank, name, m.Seq, m.Origin, c.n)
	case c.filled[ph].has(m.Origin):
		first := c.slots[ph][m.Origin]
		return fmt.Errorf("train: trainer %d: second %s frame from trainer %d for round %d: %d floats, the first carried %d",
			c.rank, name, m.Origin, m.Seq, floats, len(first.Data)+first.Floats)
	case floats != hi-lo || len(m.Loss) != nLoss:
		return fmt.Errorf("train: trainer %d: %s frame from trainer %d for round %d carries %d floats and %d loss terms, trainer %d's chunk holds %d and %d",
			c.rank, name, m.Origin, m.Seq, floats, len(m.Loss), owner, hi-lo, nLoss)
	}
	c.slots[ph][m.Origin] = m
	c.filled[ph].set(m.Origin)
	c.cond.Signal()
	return nil
}

// await blocks until every peer's frame of phase ph's next round is filed,
// and returns how long it blocked.
func (c *meshColl) await(ph int) time.Duration {
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.filled[ph] != c.peers {
		c.cond.Wait()
	}
	return time.Since(start)
}

// done returns phase ph's folded frames to the pools and opens its slots to
// the round after.
func (c *meshColl) done(ph int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.slots[ph] {
		transport.ReleasePayload(m)
	}
	clear(c.slots[ph])
	c.filled[ph] = 0
	c.next[ph]++
}

// ReduceScatter implements collective.Collective: send every peer its
// chunk of grads with this rank's loss terms, then fold this rank's chunk
// from the peers' frames and its own grads, in rank order from zero. Each
// chunk is copied into an arena row — grads are live, and Send hands the
// frame to its one receiver — which the consumer returns
// (transport.ReleasePayload), over TCP the sending endpoint once it has
// encoded it.
func (c *meshColl) ReduceScatter(_ int, grads [][]float32, loss []float64, sum []float32) time.Duration {
	x := c.next[phaseReduce] // written only by this goroutine
	out := c.lossOut[x%2]
	copy(out, loss)
	for q := range c.n {
		if q != c.rank {
			m := transport.FusedCollMsg{Seq: x, Origin: c.rank, Loss: out}
			if lo, hi := collective.Chunk(c.total, c.n, q); hi > lo {
				m.Data = transport.Rows(hi - lo).Get()
				collective.FoldSpan(m.Data, grads, lo, true)
			}
			c.eng.send(c.ep, q, classColl, m)
		}
	}
	wait := c.await(phaseReduce)
	lo, _ := collective.Chunk(c.total, c.n, c.rank)
	for q, m := range c.slots[phaseReduce] {
		if q == c.rank {
			collective.FoldSpan(sum, grads, lo, q == 0)
			collective.Fold(c.lossSum, loss, q == 0)
		} else {
			collective.Fold(sum, m.Data, q == 0)
			collective.Fold(c.lossSum, m.Loss, q == 0)
		}
	}
	c.done(phaseReduce)
	return wait
}

// AllGather implements collective.Collective: send every peer this rank's
// stepped chunk of values, coded against prev in one pass that also
// refreshes prev, then XOR the peers' codings into values. Each frame owns
// its coding in a pooled frame buffer: the last peer's is the one packed,
// sent once every other peer's copy of it is made, since Send hands it on.
func (c *meshColl) AllGather(_ int, values [][]float32, loss []float64) time.Duration {
	lo, _ := collective.Chunk(c.total, c.n, c.rank)
	var packed []byte
	if len(c.prev) > 0 {
		packed = collective.Pack(transport.GetBytes(collective.PackedBound(len(c.prev))), values, lo, c.prev)
	}
	last := c.n - 1
	if last == c.rank {
		last--
	}
	for q := range c.n {
		if q == c.rank {
			continue
		}
		m := transport.FusedCollMsg{Seq: c.next[phaseGather], Origin: c.rank, Gather: true, Floats: len(c.prev), Packed: packed}
		if q != last && packed != nil {
			m.Packed = append(transport.GetBytes(len(packed)), packed...)
		}
		c.eng.send(c.ep, q, classColl, m)
	}
	wait := c.await(phaseGather)
	for q, m := range c.slots[phaseGather] {
		if q != c.rank {
			qlo, _ := collective.Chunk(c.total, c.n, q)
			collective.Unpack(values, qlo, m.Floats, m.Packed)
		}
	}
	c.done(phaseGather)
	copy(loss, c.lossSum)
	return wait
}
