package data

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bagpipe/internal/tensor"
)

// Example is one training example: numeric features, one global embedding
// ID per categorical feature, and a binary click label.
type Example struct {
	Dense []float32
	Cat   []uint64
	Label float32
}

// Batch is a contiguous group of examples with its position in the stream.
type Batch struct {
	Index    int // iteration number this batch trains
	Examples []Example

	// The arrays every example's Dense and Cat view and the batch's random
	// stream, kept for a refill (Generator.BatchInto).
	dense []float32
	cat   []uint64
	rng   tensor.RNG
}

// Size returns the number of examples in the batch.
func (b *Batch) Size() int { return len(b.Examples) }

// UniqueIDs returns the sorted set of distinct embedding IDs the batch
// accesses. Fetching only unique IDs per batch is the baseline optimization
// every system in the paper applies (§2.3).
func (b *Batch) UniqueIDs() []uint64 {
	seen := make(map[uint64]struct{}, len(b.Examples)*4)
	for _, ex := range b.Examples {
		for _, id := range ex.Cat {
			seen[id] = struct{}{}
		}
	}
	ids := make([]uint64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TotalAccesses returns the number of (non-unique) embedding accesses.
func (b *Batch) TotalAccesses() int {
	n := 0
	for _, ex := range b.Examples {
		n += len(ex.Cat)
	}
	return n
}

// Generator deterministically produces the batch stream for a Spec. It is
// safe to create multiple generators over the same spec+seed (the Oracle
// Cacher and the data-processor pipeline each walk their own copy).
type Generator struct {
	Spec    *Spec
	Seed    uint64
	offsets []uint64

	// hidden ground-truth model so labels are learnable: a per-ID latent
	// weight (hash-derived) plus a dense-feature weight vector.
	denseW []float32
}

// NewGenerator returns a generator for spec with the given seed.
func NewGenerator(spec *Spec, seed uint64) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{Spec: spec, Seed: seed, offsets: spec.TableOffsets()}
	rng := tensor.NewRNG(seed ^ 0xABCDE)
	g.denseW = make([]float32, spec.NumNumeric)
	for i := range g.denseW {
		g.denseW[i] = rng.Float32()*2 - 1
	}
	return g
}

// latentWeight derives a stable per-embedding-ID contribution to the label
// logit, so categorical features carry learnable signal.
func latentWeight(id uint64) float32 {
	h := id * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	// map to roughly [-0.5, 0.5]
	return float32(int64(h%1024)-512) / 1024
}

// Batch generates batch i with batchSize examples. The result depends only
// on (spec, seed, i, batchSize): regeneration yields identical data.
func (g *Generator) Batch(i, batchSize int) *Batch {
	return g.BatchInto(nil, i, batchSize)
}

// BatchInto is Batch generated into b's arrays, which grow when short, so
// a caller that hands its spent batches back allocates nothing per batch;
// b == nil takes a new batch. The draws are Batch's, in Batch's order, so
// the batch is identical to a fresh one.
func (g *Generator) BatchInto(b *Batch, i, batchSize int) *Batch {
	if i < 0 || batchSize <= 0 {
		panic(fmt.Sprintf("data: bad batch request (%d, %d)", i, batchSize))
	}
	if b == nil {
		b = new(Batch)
	}
	b.rng = *tensor.NewRNG(g.Seed ^ (uint64(i)+1)*0x5851F42D4C957F2D)
	rng := &b.rng
	if d, ok := g.Spec.Dist.(*Drifting); ok {
		d.SetClock(int64(i) * int64(batchSize) * int64(g.Spec.NumCategorical))
	}
	// Every example views its share of one dense and one id array; the
	// full slice expressions keep an append from spilling into a neighbour.
	nd, nc := g.Spec.NumNumeric, g.Spec.NumCategorical
	b.dense = slices.Grow(b.dense[:0], batchSize*nd)[:batchSize*nd]
	b.cat = slices.Grow(b.cat[:0], batchSize*nc)[:batchSize*nc]
	b.Index, b.Examples = i, slices.Grow(b.Examples[:0], batchSize)[:batchSize]
	dense, cat := b.dense, b.cat
	for e := range b.Examples {
		ex := Example{
			Dense: dense[e*nd : (e+1)*nd : (e+1)*nd],
			Cat:   cat[e*nc : (e+1)*nc : (e+1)*nc],
		}
		logit := float32(0)
		for d := range ex.Dense {
			v := rng.Float32()*2 - 1
			ex.Dense[d] = v
			logit += v * g.denseW[d]
		}
		for c := range ex.Cat {
			row := g.Spec.Dist.Sample(rng, g.Spec.TableSizes[c])
			id := g.offsets[c] + uint64(row)
			ex.Cat[c] = id
			logit += latentWeight(id)
		}
		// Click labels follow the hidden model with noise; base CTR is kept
		// low-ish like real click logs.
		p := 1 / (1 + expNeg(logit-0.5))
		if rng.Float32() < p {
			ex.Label = 1
		}
		b.Examples[e] = ex
	}
	return b
}

func expNeg(x float32) float32 {
	return float32(math.Exp(-float64(x)))
}

// NumBatches returns how many full batches of size batchSize the dataset
// holds.
func (g *Generator) NumBatches(batchSize int) int64 {
	return g.Spec.NumExamples / int64(batchSize)
}
