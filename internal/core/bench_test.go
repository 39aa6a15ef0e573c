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
// the per-trainer plan split at the paper's default window (ℒ=200) on a
// Criteo-shaped stream — the rate the oracle goroutine must sustain to stay
// ahead of the trainers.
func BenchmarkOracleLookahead(b *testing.B) {
	spec := benchSpec()
	gen := data.NewGenerator(spec, 3)
	const batchSize = 256
	// Pre-generate the stream so the benchmark isolates oracle work from
	// synthetic data generation.
	const nBatches = 64
	batches := make([]*data.Batch, nBatches)
	for i := range batches {
		batches[i] = gen.Batch(i, batchSize)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		o := NewOracle(&SliceSource{Batches: batches}, 200, 4)
		for {
			d, ok := o.Next()
			if !ok {
				break
			}
			d.Plans(4)
		}
	}
	b.ReportMetric(float64(nBatches), "decisions/op")
}
