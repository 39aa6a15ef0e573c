package transport

import (
	"math"
	"reflect"
	"testing"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// TestCodecRoundTrip pins the little-endian codec: every wire payload type
// decodes back to a deep-equal value, including map fields and the nested
// plan/decision/batch structure.
func TestCodecRoundTrip(t *testing.T) {
	plan := &core.TrainerPlan{
		Trainer:  1,
		Prefetch: []uint64{3, 9, 27},
		OwnedTTL: map[uint64]int{3: 5, 9: 4, 27: 4},
		Expiring: []uint64{9},
		Users:    map[uint64][]int{3: {0, 1}, 9: {1}},
		ReplicaOut: map[int][]uint64{
			0: {3},
			2: {3, 9},
		},
		Remote:      map[uint64]int{4: 0, 8: 2},
		ReplicaFrom: []int{0, 2},
		Dec: &core.Decision{
			Iter:       4,
			Assign:     []int{0, 1, 1, 2},
			NeededNext: map[uint64]bool{3: true},
			Batch: &data.Batch{
				Index: 4,
				Examples: []data.Example{
					{Dense: []float32{0.5, -1}, Cat: []uint64{3, 4}, Label: 1},
					{Dense: []float32{2, 3}, Cat: []uint64{9, 8}, Label: 0},
					{Dense: []float32{-0.25, 0}, Cat: []uint64{3, 8}, Label: 1},
					{Dense: []float32{1, 1}, Cat: []uint64{27, 4}, Label: 0},
				},
			},
		},
	}
	cases := []any{
		ReplicaMsg{Iter: 7, Rows: map[uint64][]float32{
			12: {1, 2.5, -3},
			99: {0, -0.125, 42},
		}},
		// Quantized replica rows: values must be f16-representable (the
		// sender quantizes before building the message).
		ReplicaMsg{Iter: 8, F16: true, Rows: map[uint64][]float32{
			4: QuantizeF16([]float32{1, -0.5, 3.25}),
			9: QuantizeF16([]float32{0.1, 6.5e4, -2e-5}),
		}},
		// Coalesced sync flushes, id → partial: iterations out of order, one
		// lossless and one f16 table (values f16-representable, as after the
		// sender's error-feedback rounding), and an empty table.
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 4, Partials: map[uint64][]float32{
				2: {0.5, 0.25},
			}},
			{Iter: 3, F16: true, Partials: map[uint64][]float32{
				2: QuantizeF16([]float32{0.1, -4}),
				8: QuantizeF16([]float32{7, -2e-5}),
			}},
			{Iter: 5, Partials: map[uint64][]float32{}},
		}},
		PlanMsg{Plan: plan},
		CollMsg{Seq: 41, F32: []float32{1.5, -2.25}},
		CollMsg{Seq: 42, F64: []float64{3.14159, -1e-9}},
		FusedCollMsg{Seq: 43, Origin: 2,
			Segs: [][]float32{{1, 2, 3}, {-0.5}, {4, 5}},
			Loss: []float64{0.693147}},
		RawMsg("hello mesh"),
	}
	for _, in := range cases {
		enc := EncodePayload(in)
		out, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", in, err)
		}
		if pm, ok := in.(PlanMsg); ok {
			// Pointer equality can't hold; compare the pointed-to values.
			// The batch arrives sparse: full length, but only the
			// destination trainer's assigned examples populated.
			got := out.(PlanMsg)
			wantBatch := data.Batch{
				Index:    pm.Plan.Dec.Batch.Index,
				Examples: make([]data.Example, len(pm.Plan.Dec.Batch.Examples)),
			}
			for i, ex := range pm.Plan.Dec.Batch.Examples {
				if pm.Plan.Dec.Assign[i] == pm.Plan.Trainer {
					wantBatch.Examples[i] = ex
				}
			}
			if !reflect.DeepEqual(wantBatch, *got.Plan.Dec.Batch) {
				t.Fatalf("plan batch round trip:\n want %+v\n out  %+v", wantBatch, *got.Plan.Dec.Batch)
			}
			pmDec, gotDec := *pm.Plan.Dec, *got.Plan.Dec
			pmDec.Batch, gotDec.Batch = nil, nil
			if !reflect.DeepEqual(pmDec, gotDec) {
				t.Fatalf("plan decision round trip:\n in  %+v\n out %+v", pmDec, gotDec)
			}
			pmPl, gotPl := *pm.Plan, *got.Plan
			pmPl.Dec, gotPl.Dec = nil, nil
			if !reflect.DeepEqual(pmPl, gotPl) {
				t.Fatalf("plan round trip:\n in  %+v\n out %+v", pmPl, gotPl)
			}
			continue
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip:\n in  %+v (%T)\n out %+v (%T)", in, in, out, out)
		}
	}
}

// TestCodecDeterministic: map-typed fields encode in sorted key order, so
// the same payload always produces identical bytes.
func TestCodecDeterministic(t *testing.T) {
	msg := ReplicaMsg{Iter: 1, Rows: map[uint64][]float32{}}
	for id := uint64(0); id < 64; id++ {
		msg.Rows[id*7919%257] = []float32{float32(id)}
	}
	ref := EncodePayload(msg)
	for i := 0; i < 16; i++ {
		if got := EncodePayload(msg); !reflect.DeepEqual(ref, got) {
			t.Fatal("encoding of the same payload differed between calls")
		}
	}
}

// TestCodecRejectsCorrupt: truncated or trailing-garbage frames error
// instead of panicking or over-allocating, for every payload family
// including the segmented fused-collective and coalesced-sync encodings.
func TestCodecRejectsCorrupt(t *testing.T) {
	payloads := []any{
		ReplicaMsg{Iter: 1, Rows: map[uint64][]float32{5: {1, 2, 3}}},
		ReplicaMsg{Iter: 1, F16: true, Rows: map[uint64][]float32{5: QuantizeF16([]float32{1, 2, 3})}},
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 2, Partials: map[uint64][]float32{3: {1, 2}, 9: {5, 6}}},
			{Iter: 1, F16: true, Partials: map[uint64][]float32{7: {3, 4}}},
		}},
		FusedCollMsg{Seq: 9, Origin: 1, Segs: [][]float32{{1, 2}, {3}}, Loss: []float64{0.5}},
	}
	for _, p := range payloads {
		enc := EncodePayload(p)
		for cut := 1; cut < len(enc); cut++ {
			if _, err := DecodePayload(enc[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d/%d bytes decoded without error", p, cut, len(enc))
			}
		}
		if _, err := DecodePayload(append(append([]byte(nil), enc...), 0xFF)); err == nil {
			t.Fatalf("%T: trailing garbage decoded without error", p)
		}
	}
	if _, err := DecodePayload([]byte{0x7F, 1, 2}); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
	// Tag 2 was the standalone SyncMsg frame; flushes only travel coalesced.
	if _, err := DecodePayload([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("retired standalone sync tag decoded without error")
	}
	// A sync table that claims rows of width zero, or a width its bytes
	// cannot hold, is rejected before anything is allocated for it.
	flush := func(dim, n uint32, tail ...byte) []byte {
		b := []byte{tagSyncBatch}
		b = putU32(b, 1)
		b = putU64(b, 3)
		b = append(b, 0)
		b = putU32(b, dim)
		b = putU32(b, n)
		return append(b, tail...)
	}
	if _, err := DecodePayload(flush(0, 1, make([]byte, 8)...)); err == nil {
		t.Fatal("zero-width sync partials decoded without error")
	}
	if _, err := DecodePayload(flush(1<<31, 1, make([]byte, 64)...)); err == nil {
		t.Fatal("oversized sync partial width decoded without error")
	}
	if _, err := DecodePayload(nil); err == nil {
		t.Fatal("empty payload decoded without error")
	}
}

// TestF16RoundTrip pins the binary16 conversion: representable values are
// exact both ways, rounding is to nearest-even, and the edges (overflow,
// subnormals, signed zero, Inf/NaN) behave.
func TestF16RoundTrip(t *testing.T) {
	exact := []float32{0, 1, -1, 0.5, -0.25, 2048, 65504, -65504, 6.103515625e-05, 5.960464477539063e-08}
	for _, x := range exact {
		if got := F32FromF16(F16FromF32(x)); got != x {
			t.Fatalf("f16 round trip of representable %v gave %v", x, got)
		}
	}
	// Quantization is idempotent: a second pass changes nothing.
	xs := []float32{3.14159, -2.71828, 1e-3, 123.456, 6e4, -7e-8}
	q := QuantizeF16(append([]float32(nil), xs...))
	for i, v := range q {
		if again := F32FromF16(F16FromF32(v)); again != v {
			t.Fatalf("quantization not idempotent at %d: %v -> %v", i, v, again)
		}
		// And never further from the original than one f16 ulp (~2^-11
		// relative for normals).
		if d := v - xs[i]; d > 0.001*abs32(xs[i])+1e-7 || d < -0.001*abs32(xs[i])-1e-7 {
			t.Fatalf("quantized %v to %v: error too large", xs[i], v)
		}
	}
	// Overflow clamps to Inf, which decodes to +Inf f32.
	if h := F16FromF32(1e6); F32FromF16(h) <= 65504 {
		t.Fatalf("1e6 quantized to %v, want +Inf", F32FromF16(h))
	}
	// NaN survives.
	if v := F32FromF16(F16FromF32(float32(math.NaN()))); v == v {
		t.Fatal("NaN did not survive f16 round trip")
	}
	// Signed zero survives.
	if h := F16FromF32(float32(math.Copysign(0, -1))); h != 0x8000 {
		t.Fatalf("-0 encoded as %#x", h)
	}
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// TestSyncEncodeRefusesRaggedOrBare: one flush carries one partial width,
// and a SyncMsg has no frame of its own — both are programming errors the
// encoder reports at the first Send.
func TestSyncEncodeRefusesRaggedOrBare(t *testing.T) {
	mustPanic := func(name string, p any) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s encoded without panicking", name)
			}
		}()
		EncodePayload(p)
	}
	mustPanic("ragged flush", SyncBatchMsg{Flushes: []SyncMsg{
		{Iter: 1, Partials: map[uint64][]float32{1: {1, 2}, 2: {3}}},
	}})
	mustPanic("bare SyncMsg", SyncMsg{Iter: 1, Partials: map[uint64][]float32{1: {1}}})
}
