package train

import (
	"fmt"
	"math"
	"testing"
	"time"

	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// wideSpec is tinySpec at EmbDim 32. The ≥40% sync-byte-cut bar needs a
// width where payload dominates framing: a sync partial is 8 + dim·elem
// bytes, so dim 32 drops 136 → 72 bytes (47.1%) under f16 while dim 8
// would only drop 40 → 24 (40.0%) before per-table headers.
func wideSpec() *data.Spec {
	s := tinySpec()
	s.Name = "tiny32"
	s.EmbDim = 32
	return s
}

// TestSyncCompressGradResidualDrains pins the error-feedback contract at
// the unit level: every flushed value is an exact f16 fixed point, the
// carried residual telescopes (flushed + residual conserves the input
// signal), and once a row's gradients stop the residual drains below the
// f16 flush-to-zero threshold 2^-25 — it is never re-lost, and never grows.
func TestSyncCompressGradResidualDrains(t *testing.T) {
	const dim, owner, id = 8, 3, uint64(42)
	ef := newEFState(dim)

	var sumIn, sumOut [dim]float64
	// A few rounds of "real" gradients whose values all carry f16 rounding
	// error (odd multiples of 1e-4 are not f16-representable).
	for round := 0; round < 4; round++ {
		g := make([]float32, dim)
		for k := range g {
			g[k] = 1e-4 * float32(2*k+1) * float32(round+1)
			sumIn[k] += float64(g[k])
		}
		ef.compress(owner, id, g)
		for k, x := range g {
			if q := transport.F32FromF16(transport.F16FromF32(x)); q != x {
				t.Fatalf("round %d: flushed g[%d]=%v is not an f16 fixed point (re-quantizes to %v)", round, k, x, q)
			}
			sumOut[k] += float64(x)
		}
	}
	res := ef.res[owner][id]
	if res == nil {
		t.Fatal("no residual carried for the compressed row")
	}
	var anyResidual bool
	for _, v := range res {
		if v != 0 {
			anyResidual = true
		}
	}
	if !anyResidual {
		t.Fatal("rounding non-representable gradients left a zero residual; error feedback is not accumulating")
	}
	// Telescoping: Σ flushed = Σ input − carried residual, up to f32
	// accumulation noise.
	for k := range sumIn {
		if d := math.Abs(sumOut[k] + float64(res[k]) - sumIn[k]); d > 1e-6 {
			t.Fatalf("element %d: flushed+residual−input = %g; error feedback lost signal", k, d)
		}
	}

	// The row goes cold: zero gradients from here on. The residual is
	// injected, quantized, and shrinks geometrically until it is at or below
	// 2^-25, where f16 flushes to zero and the flush stream becomes exactly
	// zero with the leftover parked in the residual forever.
	var lastFlush []float32
	for round := 0; round < 8; round++ {
		g := make([]float32, dim)
		ef.compress(owner, id, g)
		lastFlush = g
	}
	for k, v := range ef.res[owner][id] {
		if math.Abs(float64(v)) > 0x1p-25 {
			t.Fatalf("residual[%d] = %v did not drain below the f16 flush-to-zero threshold 2^-25", k, v)
		}
	}
	for k, v := range lastFlush {
		if v != 0 {
			t.Fatalf("drained row still flushed g[%d] = %v, want exactly 0", k, v)
		}
	}

	// Residuals are per (owner, row): a second row on the same owner, and the
	// same row on another owner, start from zero.
	ef.compress(owner, id+1, make([]float32, dim))
	ef.compress(owner+1, id, make([]float32, dim))
	for _, r := range [][]float32{ef.res[owner][id+1], ef.res[owner+1][id]} {
		for k, v := range r {
			if v != 0 {
				t.Fatalf("fresh row picked up a foreign residual: res[%d] = %v", k, v)
			}
		}
	}
}

// TestSyncCompressGradByteCut runs the full LRPP engine with and without
// -sync-compress-grad on an EmbDim-32 model and checks the accounting the
// flag exists for: the sync traffic class sheds ≥40% of its bytes at an
// identical frame count, while the loss curve stays within f16-noise of the
// lossless run.
func TestSyncCompressGradByteCut(t *testing.T) {
	cfg := tinyConfig()
	cfg.Spec = wideSpec()
	cfg.NumTrainers = 2
	cfg.NumBatches = 20

	off := cfg
	srvOff := newServer(cfg.Spec, 3)
	resOff, err := RunLRPP(off, newStores(srvOff, 2), nil)
	if err != nil {
		t.Fatalf("lossless run: %v", err)
	}

	on := cfg
	on.SyncCompressGrad = true
	srvOn := newServer(cfg.Spec, 3)
	resOn, err := RunLRPP(on, newStores(srvOn, 2), nil)
	if err != nil {
		t.Fatalf("compressed run: %v", err)
	}

	if resOn.SyncEntries == 0 || resOn.MeshClasses.SyncMsgs == 0 {
		t.Fatal("compressed run flushed no sync traffic; the path was never exercised")
	}
	if resOn.MeshClasses.SyncMsgs != resOff.MeshClasses.SyncMsgs {
		t.Fatalf("compression changed the sync frame count: %d vs %d",
			resOn.MeshClasses.SyncMsgs, resOff.MeshClasses.SyncMsgs)
	}
	if resOn.MeshClasses.SyncBytes > resOff.MeshClasses.SyncBytes*6/10 {
		t.Fatalf("compressed sync bytes %d not ≤ 60%% of lossless %d (cut %.1f%%)",
			resOn.MeshClasses.SyncBytes, resOff.MeshClasses.SyncBytes,
			100*(1-float64(resOn.MeshClasses.SyncBytes)/float64(resOff.MeshClasses.SyncBytes)))
	}
	if d := resOn.LastLoss - resOff.LastLoss; d > 0.05 || d < -0.05 {
		t.Fatalf("compressed last loss %v drifted from lossless %v", resOn.LastLoss, resOff.LastLoss)
	}
}

// TestSyncCompressGradDeterministicAcrossFabrics: the compressed mode is
// lossy relative to the lossless baseline but must remain a deterministic
// function of the run — quantization happens at the sender in flush-pass
// order, the wire is lossless with respect to the f16 values, and error
// feedback is per (owner,row) state independent of transport timing. So
// every fabric (instant in-process, reordering simulated links, real TCP)
// and the single-process engine must leave bit-identical embedding tiers.
func TestSyncCompressGradDeterministicAcrossFabrics(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 2
	cfg.NumBatches = 20
	cfg.SyncCompressGrad = true

	srvRef := newServer(cfg.Spec, 3)
	if _, err := RunLRPP(cfg, newStores(srvRef, 2), nil); err != nil {
		t.Fatalf("single-process compressed run: %v", err)
	}

	for _, meshName := range []string{"inproc", "sim", "tcp"} {
		t.Run(meshName, func(t *testing.T) {
			var mesh transport.Mesh
			switch meshName {
			case "inproc":
				mesh = transport.NewInprocMesh(cfg.NumTrainers)
			case "sim":
				mesh = transport.NewSimMesh(cfg.NumTrainers, 200*time.Microsecond, 20e6)
			case "tcp":
				lb, err := transport.NewLoopbackTCPMesh(cfg.NumTrainers)
				if err != nil {
					t.Fatal(err)
				}
				defer lb.Shutdown()
				mesh = lb
			}
			srv := newServer(cfg.Spec, 3)
			results := runWorkers(t, cfg, newStores(srv, cfg.NumTrainers), mesh)
			if d := embed.Diff(srvRef, srv); len(d) != 0 {
				t.Fatalf("compressed run over %s diverged from the single-process run at %d ids (first: %v)",
					meshName, len(d), d[0])
			}
			for p, res := range results {
				if res.MeshClasses.SyncMsgs == 0 {
					t.Fatalf("worker %d sent no sync frames (%s)", p, fmt.Sprint(meshName))
				}
			}
		})
	}
}
