package transport

import (
	"testing"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// Payload shapes of one train-tcp-cold iteration at P = 2 (uniform keys,
// wd, dim 16, batch 256, 26 categorical and 13 numeric fields): a trainer
// owns about 3 300 of the batch's rows, pushes about 1 650 of them to its
// peer and flushes about 800 partials to it per pass, and the fused
// collective carries wd's dense gradients.
const (
	benchDim         = 16
	benchReplicaRows = 1650
	benchSyncRows    = 800
	benchOwnedRows   = 3300
	benchBatch       = 256
)

// benchChunk is one rank's chunk of wd's 135 841 dense-parameter floats
// at P = 2.
const benchChunk = 135841 / 2

// benchRun is a run of n rows of benchDim floats.
func benchRun(n int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, benchDim)
		for k := range rows[i] {
			rows[i][k] = float32(i*benchDim+k) * 1e-3
		}
	}
	return rows
}

// benchPlan is trainer 0's plan of a P = 2 uniform-key iteration.
func benchPlan() *core.Plan {
	pl := &core.Plan{Trainer: 0, ReplicaOut: make([][]uint64, 2), ReplicaFrom: 0b10}
	for i := 0; i < benchOwnedRows; i++ {
		id := 2 * uint64(i) * 97
		pl.Owned = append(pl.Owned, id)
		pl.OwnedTTL = append(pl.OwnedTTL, 5)
		users := core.Ranks(0b01)
		if i%2 == 0 {
			users = 0b11
			pl.ReplicaOut[1] = append(pl.ReplicaOut[1], id)
		}
		pl.OwnedUsers = append(pl.OwnedUsers, users)
		pl.OwnedNext = append(pl.OwnedNext, i%3 == 0)
	}
	pl.Prefetch, pl.Expiring = pl.Owned, pl.Owned
	for i := 0; i < benchReplicaRows; i++ {
		pl.Remote = append(pl.Remote, (2*uint64(i)+1)*97)
		pl.RemoteOwner = append(pl.RemoteOwner, 1)
		pl.RemoteNext = append(pl.RemoteNext, i%3 == 0)
	}
	d := &core.Decision{Iter: 5, Batch: &data.Batch{Index: 5}}
	for i := 0; i < benchBatch; i++ {
		ex := data.Example{Dense: make([]float32, 13), Cat: make([]uint64, 26), Label: float32(i % 2)}
		for c := range ex.Cat {
			ex.Cat[c] = uint64(i*26 + c)
		}
		d.Assign = append(d.Assign, i%2)
		d.Batch.Examples = append(d.Batch.Examples, ex)
	}
	pl.Dec = d
	return pl
}

// BenchmarkPayloadCodec times one encode and one decode of each mesh
// payload at train-tcp-cold's shapes. Encoding appends into a reused
// buffer, as the TCP endpoint's pooled frames do; each decoded payload is
// released to the pools, as a receiver does.
func BenchmarkPayloadCodec(b *testing.B) {
	payloads := []struct {
		name string
		make func() any
	}{
		{"replica", func() any { return ReplicaMsg{Iter: 5, Rows: benchRun(benchReplicaRows)} }},
		{"sync", func() any {
			return SyncBatchMsg{Flushes: []SyncMsg{{Iter: 5, Class: SyncUrgent, Partials: benchRun(benchSyncRows)}}}
		}},
		{"fused", func() any {
			return FusedCollMsg{Seq: 5, Origin: 1, Data: make([]float32, benchChunk), Loss: []float64{0.69}}
		}},
		{"gather", func() any {
			prev, cur := make([]float32, benchChunk), make([]float32, benchChunk)
			for i := range cur {
				prev[i] = 0.01 * float32(i%97)
				cur[i] = prev[i] - 1e-4
			}
			return gatherMsg(5, 1, prev, cur)
		}},
		{"plan", func() any { return PlanMsg{Plan: benchPlan()} }},
	}
	for _, p := range payloads {
		msg := p.make()
		frame := EncodePayload(msg)
		b.Run(p.name+"/enc", func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			buf := make([]byte, 0, len(frame))
			for i := 0; i < b.N; i++ {
				buf = appendPayload(buf[:0], msg)
			}
		})
		b.Run(p.name+"/dec", func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := DecodePayload(frame)
				if err != nil {
					b.Fatal(err)
				}
				ReleasePayload(out)
			}
		})
	}
}
