package embed

import (
	"fmt"
	"testing"
)

// benchIDs builds a fetch request of n ids spread over the keyspace so a
// multi-shard server sees every shard in every request, matching the access
// pattern of an oracle-driven prefetch.
func benchIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i) * 2654435761 % 1_000_000
	}
	return ids
}

// BenchmarkServerFetch compares the shard-grouped fetch against the seed's
// row-at-a-time loop at prefetch-sized requests on a multi-shard
// server (the configuration the LRPP trainers' prefetch drives).
func BenchmarkServerFetch(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		for _, n := range []int{256, 4096} {
			s := NewServer(shards, 48, 7, 0.1)
			ids := benchIDs(n)
			s.Fetch(ids) // materialize once so steady-state is measured
			b.Run(fmt.Sprintf("grouped/shards=%d/ids=%d", shards, n), func(b *testing.B) {
				b.SetBytes(int64(n * 48 * 4))
				for i := 0; i < b.N; i++ {
					s.Fetch(ids)
				}
			})
			b.Run(fmt.Sprintf("serial/shards=%d/ids=%d", shards, n), func(b *testing.B) {
				b.SetBytes(int64(n * 48 * 4))
				for i := 0; i < b.N; i++ {
					s.FetchSerial(ids)
				}
			})
		}
	}
}

// BenchmarkServerWrite measures the shard-grouped write-back path.
func BenchmarkServerWrite(b *testing.B) {
	for _, shards := range []int{1, 8} {
		s := NewServer(shards, 48, 7, 0.1)
		ids := benchIDs(4096)
		rows := s.Fetch(ids)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(ids) * 48 * 4))
			for i := 0; i < b.N; i++ {
				s.Write(ids, rows)
			}
		})
	}
}
