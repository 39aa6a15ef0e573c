package core

import (
	"testing"

	"bagpipe/internal/data"
)

// benchSpec is a Criteo-Kaggle-shaped workload scaled to benchmark size.
func benchSpec() *data.Spec {
	return data.CriteoKaggle().Scaled(1000)
}

// BenchmarkCacheInsertEvict measures the trainer-side cache hot path: a
// window of inserts followed by TTL expiry of the whole window, the exact
// churn one oracle iteration inflicts.
func BenchmarkCacheInsertEvict(b *testing.B) {
	const window = 2048
	dim := 48
	rows := make([][]float32, window)
	for i := range rows {
		rows[i] = make([]float32, dim)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c := NewCache(dim)
		for i := 0; i < window; i++ {
			c.Insert(uint64(i), rows[i], i%8) // staggered TTLs
		}
		for iter := 0; iter < 8; iter++ {
			c.EvictExpired(iter)
		}
		if c.Len() != 0 {
			b.Fatal("cache not drained")
		}
	}
}

// BenchmarkCacheGet measures lookup throughput at steady occupancy.
func BenchmarkCacheGet(b *testing.B) {
	dim := 48
	c := NewCache(dim)
	const rows = 4096
	for i := 0; i < rows; i++ {
		c.Insert(uint64(i), make([]float32, dim), 1<<30)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, ok := c.Get(uint64(n % rows)); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkOracleLookahead measures decision throughput of Algorithm 1 plus
// the per-trainer plan split — the rate the oracle goroutine must sustain to
// stay ahead of the trainers — on two pre-generated streams, so it isolates
// oracle work from synthetic data generation:
//
//   - criteo-L200-P4: the paper's default window (ℒ=200) on a Criteo-shaped
//     stream;
//   - uniform-L32-P2: the benchmark's uniform-key TCP shape (Criteo scaled
//     by 100, batch 256, ℒ=32, two trainers), where every row is a miss and
//     the plans are the largest.
//
// Both build a fresh oracle per op, so their B/op is one stream's
// decisions and plans plus the window's warm-up growth: the id table, the
// slot slab and the window buffers, which a long run allocates only once.
// steady-uniform-L32-P2 and steady-hottail-L32-P2 are the long run: one
// warmed oracle over the uniform or the hot-tail stream, replayed in a
// cycle, where each op is one decision's Next, Plans(2) and Recycle, and
// the hand-back of both plans: the engine's oracle loop, placement
// included.
func BenchmarkOracleLookahead(b *testing.B) {
	const batchSize, nBatches = 256, 64
	uniform := data.CriteoKaggle().Scaled(100).WithEmbDim(16).WithDist(data.Uniform{})
	for _, c := range []struct {
		name string
		spec *data.Spec
		l, p int
	}{
		{"criteo-L200-P4", benchSpec(), 200, 4},
		{"uniform-L32-P2", uniform, 32, 2},
	} {
		batches := genBatches(c.spec, nBatches, batchSize)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				o := NewOracle(&SliceSource{Batches: batches}, c.l, c.p)
				for {
					d, ok := o.Next()
					if !ok {
						break
					}
					d.Plans(c.p)
				}
			}
			b.ReportMetric(float64(nBatches), "decisions/op")
		})
	}
	for _, c := range []struct {
		name string
		spec *data.Spec
	}{
		{"steady-uniform-L32-P2", uniform},
		{"steady-hottail-L32-P2", data.CriteoKaggle().Scaled(100).WithEmbDim(16)},
	} {
		b.Run(c.name, func(b *testing.B) {
			o := warmOracle(genBatches(c.spec, nBatches, batchSize), 32, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				d, _ := o.Next()
				plans := d.Plans(2)
				o.Recycle(d)
				for _, pl := range plans {
					pl.Release()
				}
			}
		})
	}
}

// genBatches pre-generates n batches of spec's stream.
func genBatches(spec *data.Spec, n, size int) []*data.Batch {
	gen := data.NewGenerator(spec, 3)
	batches := make([]*data.Batch, n)
	for i := range batches {
		batches[i] = gen.Batch(i, size)
	}
	return batches
}

// cycleSource replays a ring of batches without end, renumbering each as it
// goes out so indices keep increasing. A batch goes out again only after
// len(batches) others, so with more batches than the window holds, no batch
// is renumbered while a window or a pending decision still holds it.
type cycleSource struct {
	batches []*data.Batch
	next    int
}

func (c *cycleSource) Next() (*data.Batch, bool) {
	b := c.batches[c.next%len(c.batches)]
	b.Index = c.next
	c.next++
	return b, true
}

// warmOracle returns an oracle with lookahead l for p trainers over batches
// in a cycle, run through three cycles of Next, Plans, Recycle and the
// plans' hand-back: its id table, slot slab, window buffers, recycled
// decision and plan set have reached the stream's steady size.
func warmOracle(batches []*data.Batch, l, p int) *Oracle {
	o := NewOracle(&cycleSource{batches: batches}, l, p)
	for range 3 * len(batches) {
		d, _ := o.Next()
		plans := d.Plans(p)
		o.Recycle(d)
		for _, pl := range plans {
			pl.Release()
		}
	}
	return o
}
