package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bagpipe/internal/collective"
	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// gatherMsg is Origin's all-gather frame of round seq when its chunk moves
// from prev to cur: cur XOR-coded against prev.
func gatherMsg(seq uint64, origin int, prev, cur []float32) FusedCollMsg {
	m := FusedCollMsg{Seq: seq, Origin: origin, Gather: true, Floats: len(cur)}
	if len(cur) > 0 {
		m.Packed = collective.Pack(nil, [][]float32{cur}, 0, slices.Clone(prev))
	}
	return m
}

// testPlan is a consistent trainer-1 plan of a P=3 decision.
func testPlan() *core.Plan {
	return &core.Plan{
		Trainer:     1,
		Owned:       []uint64{3, 9, 27},
		OwnedTTL:    []int{5, 4, 4},
		OwnedUsers:  []core.Ranks{0b011, 0b110, 0b010},
		OwnedNext:   []bool{true, false, true},
		Prefetch:    []uint64{3, 27},
		Expiring:    []uint64{9, 27},
		ReplicaOut:  [][]uint64{{3}, nil, {9}},
		Remote:      []uint64{4, 8},
		RemoteOwner: []int{0, 2},
		RemoteNext:  []bool{true, false},
		ReplicaFrom: 0b101,
		Dec: &core.Decision{
			Iter:   4,
			Assign: []int{0, 1, 1, 2},
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
}

// TestCodecRoundTrip pins the little-endian codec: every wire payload type
// decodes back to a deep-equal value, including row runs and the nested
// plan/decision/batch structure.
func TestCodecRoundTrip(t *testing.T) {
	plan := testPlan()
	cases := []any{
		ReplicaMsg{Iter: 7, Rows: [][]float32{
			{1, 2.5, -3},
			{0, -0.125, 42},
		}},
		ReplicaMsg{Iter: 8},
		// Sync flushes of both classes: iterations out of order, and an
		// empty flush.
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 4, Class: SyncUrgent, Partials: [][]float32{{0.5, 0.25}}},
			{Iter: 3, Class: SyncDeferred, Partials: [][]float32{{0.1, -4}, {7, -2e-5}}},
			{Iter: 5},
		}},
		PlanMsg{Plan: plan},
		FusedCollMsg{Seq: 43, Origin: 2, Data: []float32{1, 2, 3, -0.5, 4, 5}, Loss: []float64{0.693147}},
		gatherMsg(43, 1, []float32{-0.5, 7}, []float32{0.5, 7.25}),
		gatherMsg(44, 1, make([]float32, 9), []float32{1, 0, 2, 0, 3, 0, 4, 0, 5}),
		gatherMsg(45, 0, nil, nil),
		RawMsg("hello mesh"),
	}
	for _, in := range cases {
		enc := EncodePayload(in)
		if n := PayloadSize(in); n != len(enc) {
			t.Fatalf("%T: PayloadSize %d, encoding is %d bytes", in, n, len(enc))
		}
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

// testPlanSegs is testPlan's frame written out by hand, one named segment
// per field of the layout, so a test can corrupt exactly one field.
func testPlanSegs() [][2]string {
	return [][2]string{
		{"tag", "03"},
		{"iter, trainer, P", "040103"},
		{"owned", "03" + "030612"},  // 3, 9, 27 as gaps
		{"ttl", "010000"},           // 5, 4, 4 less iteration 4
		{"users", "030602"},         // 0b011, 0b110, 0b010
		{"owned next", "05"},        // true, false, true
		{"prefetch", "02" + "0002"}, // positions 0, 2
		{"expiring", "02" + "0101"}, // positions 1, 2
		{"replica out", "0100" + "00" + "0101"},
		{"remote", "02" + "0404"}, // 4, 8
		{"remote owner", "0002"},
		{"remote next", "01"}, // true, false
		{"assign", "04" + "00010102"},
		{"batch index", "04"},
		{"example 1", "02" + "000000400000" + "4040" + "02" + "0908" + "00000000"},
		{"example 2", "02" + "000080be00000000" + "02" + "0308" + "0000803f"},
	}
}

// planFrame joins segs, with seg name replaced by hex when name is set.
func planFrame(t *testing.T, segs [][2]string, name, hexSeg string) []byte {
	var s strings.Builder
	found := name == ""
	for _, seg := range segs {
		if seg[0] == name {
			seg[1], found = hexSeg, true
		}
		s.WriteString(seg[1])
	}
	if !found {
		t.Fatalf("no plan segment %q", name)
	}
	b, err := hex.DecodeString(s.String())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPlanDecodeRejectsHostile: a plan frame the encoder could not have
// written from a consistent plan — an overlong varint, a repeated id or
// position, a position past Owned, a set padding bit, a rank outside the
// trainer count, a replica list for the plan's own trainer — is an error,
// never a plan the engine would panic or hang on. The hand-written frame
// the corruptions start from is first checked to be testPlan's encoding.
// A plan the encoder cannot represent (unsorted ids, a subset list leaving
// Owned, parallel lists of different lengths) panics at the encoder.
func TestPlanDecodeRejectsHostile(t *testing.T) {
	segs := testPlanSegs()
	if got, want := planFrame(t, segs, "", ""), EncodePayload(PlanMsg{Plan: testPlan()}); !bytes.Equal(got, want) {
		t.Fatalf("hand-written plan frame\n %x\nencoder writes\n %x", got, want)
	}
	for _, c := range []struct{ name, seg, hex string }{
		{"overlong varint", "iter, trainer, P", "84000103"},
		{"overlong zero", "iter, trainer, P", "04800003"},
		{"varint past 64 bits", "batch index", "ffffffffffffffffff02"},
		{"iteration past int", "iter, trainer, P", "ffffffffffffffffff010103"},
		{"zero-gap duplicate id", "owned", "03" + "030012"},
		{"zero-gap duplicate remote id", "remote", "02" + "0400"},
		{"id past 2^64-1", "remote", "02" + "04ffffffffffffffffff01"},
		{"repeated position", "prefetch", "02" + "0200"},
		{"position past owned", "prefetch", "02" + "0003"},
		{"first position past owned", "expiring", "01" + "03"},
		{"replica position past owned", "replica out", "0103" + "00" + "0101"},
		{"more positions than owned", "expiring", "04" + "00010101"},
		{"owned-next padding", "owned next", "0d"},
		{"remote-next padding", "remote next", "05"},
		{"trainer past P", "iter, trainer, P", "040303"},
		{"no trainers", "iter, trainer, P", "040100"},
		{"too many trainers", "iter, trainer, P", "0401" + "41"},
		{"owner past P", "remote owner", "0003"},
		{"owner is self", "remote owner", "0001"},
		{"user set past P", "users", "030609"},
		{"empty user set", "users", "030600"},
		{"assignment past P", "assign", "04" + "00010103"},
		{"replica to self", "replica out", "0100" + "0100" + "0101"},
		{"ttl past int", "ttl", "01ffffffffffffffff7f00"},
		{"dense run past the frame", "example 2", "7f"},
	} {
		if _, err := DecodePayload(planFrame(t, segs, c.seg, c.hex)); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
	for name, mutate := range map[string]func(pl *core.Plan){
		"unsorted owned":         func(pl *core.Plan) { pl.Owned = []uint64{9, 3, 27} },
		"duplicate remote":       func(pl *core.Plan) { pl.Remote = []uint64{4, 4} },
		"unsorted replica list":  func(pl *core.Plan) { pl.ReplicaOut[2] = []uint64{27, 9} },
		"short ttl slice":        func(pl *core.Plan) { pl.OwnedTTL = pl.OwnedTTL[:2] },
		"long user slice":        func(pl *core.Plan) { pl.OwnedUsers = append(pl.OwnedUsers, 1) },
		"short owner slice":      func(pl *core.Plan) { pl.RemoteOwner = pl.RemoteOwner[:1] },
		"short next slice":       func(pl *core.Plan) { pl.RemoteNext = nil },
		"long owned-next slice":  func(pl *core.Plan) { pl.OwnedNext = append(pl.OwnedNext, true) },
		"prefetch not owned":     func(pl *core.Plan) { pl.Prefetch = []uint64{3, 5} },
		"expiring not owned":     func(pl *core.Plan) { pl.Expiring = []uint64{28} },
		"replica of unowned row": func(pl *core.Plan) { pl.ReplicaOut[0] = []uint64{4} },
	} {
		pl := testPlan()
		mutate(pl)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: encoded without a panic", name)
				}
			}()
			EncodePayload(PlanMsg{Plan: pl})
		}()
	}
}

// retiredFrames is one frame of each retired encoding, laid out as a peer
// that still spoke it would have sent it: the per-parameter collective
// (tag 4: seq, element-type flag, float32 vector), the float16 replica
// push (tag 6: iteration, one row of one binary16 element), and a sync
// table whose reserved byte carries the old float16 flag (one id and one
// partial of one binary16 element). Every one must decode to an error.
func retiredFrames() []struct {
	name  string
	frame []byte
} {
	coll := putF32s(append(putU64([]byte{4}, 1), 0), []float32{1.5})
	replica := putU32(putU64(putU32(putU64([]byte{6}, 1), 1), 4), 1)
	replica = binary.LittleEndian.AppendUint16(replica, 0x3C00) // 1.0
	sync := putU64(putU32([]byte{tagSyncBatch}, 1), 3)
	sync = putU64(putU32(putU32(append(sync, 1), 1), 1), 4)
	sync = binary.LittleEndian.AppendUint16(sync, 0x3C00)
	return []struct {
		name  string
		frame []byte
	}{
		{"retired coll tag 4", coll},
		{"retired f16 replica tag 6", replica},
		{"retired f16 sync table", sync},
	}
}

// FuzzDecodePayload feeds arbitrary bytes to the mesh payload decoder,
// seeded with one valid frame of every type EncodePayload writes, one of
// each retired encoding and oracle-cut plan frames: decode must never panic or over-allocate, and
// every frame it accepts must be canonical — re-encoding the payload
// reproduces it byte for byte, and PayloadSize (what the TCP endpoint sizes
// its pooled frame by) predicts its length.
func FuzzDecodePayload(f *testing.F) {
	for _, p := range []any{
		ReplicaMsg{Iter: 7, Rows: [][]float32{{1, 2.5, -3}, {0, -0.125, 42}}},
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 4, Class: SyncUrgent, Partials: [][]float32{{0.5, 0.25}, {1, 2}}},
			{Iter: 3, Class: SyncDeferred, Partials: [][]float32{{7, -2e-5}}},
			{Iter: 5},
		}},
		PlanMsg{Plan: testPlan()},
		FusedCollMsg{Seq: 43, Origin: 2, Data: []float32{1, 2, 3, -0.5}, Loss: []float64{0.693147}},
		// All-gather frames: words of one to four bytes over a chunk that
		// does not end on a tag byte, every word at its widest, and an
		// empty chunk.
		gatherMsg(43, 1, []float32{-0.5, 7, 1, 0, 3}, []float32{0.5, 7.25, 1, float32(math.Inf(1)), 3.0000002}),
		gatherMsg(44, 2, make([]float32, 6), []float32{-1, -2, -3, -4, -5, -6}),
		gatherMsg(45, 1, nil, nil),
		RawMsg("hello mesh"),
		// The id-free replica push of one row, and the engine's two sync
		// frames of one iteration: urgent, then deferred.
		ReplicaMsg{Iter: 2, Rows: [][]float32{{-1, 0.5}}},
		SyncBatchMsg{Flushes: []SyncMsg{{Iter: 9, Class: SyncUrgent, Partials: [][]float32{{1}, {2}, {3}}}}},
		SyncBatchMsg{Flushes: []SyncMsg{{Iter: 9, Class: SyncDeferred, Partials: [][]float32{{4}}}}},
	} {
		f.Add(EncodePayload(p))
	}
	for _, r := range retiredFrames() {
		f.Add(r.frame)
	}
	// The runs the decoder refuses: replica rows of width 0, more rows than
	// the frame can hold, and a sync flush of a third class.
	f.Add(putU32(putU32(putU64([]byte{tagReplica}, 1), 0), 5))
	f.Add(putF32sRaw(putU32(putU32(putU64([]byte{tagReplica}, 1), 4), 3), make([]float32, 4)))
	f.Add(putF32sRaw(putU32(putU32(append(putU64(putU32([]byte{tagSyncBatch}, 1), 3), 2), 1), 1), []float32{1}))
	// Compact plan frames as the oracle cuts them: every plan of a short
	// uniform-key stream at P = 3, batch 8, ℒ = 2.
	spec := data.CriteoKaggle().Scaled(1000).WithDist(data.Uniform{})
	o := core.NewOracle(core.NewGeneratorSource(data.NewGenerator(spec, 3), 8, 3), 2, 3)
	for d, ok := o.Next(); ok; d, ok = o.Next() {
		for _, pl := range d.Plans(3) {
			f.Add(EncodePayload(PlanMsg{Plan: pl}))
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := DecodePayload(frame)
		if err != nil {
			return
		}
		if again := EncodePayload(p); !bytes.Equal(again, frame) {
			t.Fatalf("accepted %T frame re-encodes differently:\n in  %x\n out %x", p, frame, again)
		}
		if n := PayloadSize(p); n != len(frame) {
			t.Fatalf("accepted %T frame of %d bytes, PayloadSize says %d", p, len(frame), n)
		}
	})
}

// TestCodecDeterministic: the same payload always produces identical bytes.
func TestCodecDeterministic(t *testing.T) {
	msg := ReplicaMsg{Iter: 1}
	for i := 0; i < 64; i++ {
		msg.Rows = append(msg.Rows, []float32{float32(i)})
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
// including both collective phases and the coalesced-sync encoding.
func TestCodecRejectsCorrupt(t *testing.T) {
	payloads := []any{
		ReplicaMsg{Iter: 1, Rows: [][]float32{{1, 2, 3}}},
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 2, Class: SyncUrgent, Partials: [][]float32{{1, 2}, {5, 6}}},
			{Iter: 1, Class: SyncDeferred, Partials: [][]float32{{3, 4}}},
		}},
		FusedCollMsg{Seq: 9, Origin: 1, Data: []float32{1, 2, 3}, Loss: []float64{0.5}},
		gatherMsg(9, 0, []float32{4, 1, 2, 3, 5}, []float32{4.5, 1, -2, 3, 5}),
		PlanMsg{Plan: testPlan()},
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
	// A collective frame's phase byte is 0 or 1.
	coll := EncodePayload(FusedCollMsg{Seq: 9, Origin: 1, Data: []float32{1}})
	coll[1+8+4] = 2
	if _, err := DecodePayload(coll); err == nil {
		t.Fatal("collective phase 2 decoded without error")
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
	// Well-framed values the encoder never writes: the decoder accepts
	// only frames that re-encode to themselves.
	syncRows := func(class byte, dim, n uint32) []byte {
		b := []byte{tagSyncBatch}
		b = putU32(b, 1)
		b = putU64(b, 3)
		b = append(b, class)
		b = putU32(b, dim)
		b = putU32(b, n)
		return putF32sRaw(b, make([]float32, dim*n))
	}
	// One replica frame carries one row width, greater than 0 exactly
	// when it carries rows: a zero-width run would reach the trainer's
	// gather short of floats.
	replicaRows := func(dim, n uint32, floats int) []byte {
		b := putU32(putU32(putU64([]byte{tagReplica}, 1), dim), n)
		return putF32sRaw(b, make([]float32, floats))
	}
	// A replica frame that claims one 16-byte row per 16 bytes it holds,
	// each as wide as the whole frame: a decoder that allocated the run
	// before counting its bytes would ask for about len²/16 bytes.
	replicaWide := func(body int) []byte {
		return replicaRows(uint32(body/4-4), uint32(body/16), body/4-4)
	}
	wide := replicaWide(32 << 10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodePayload(wide); err == nil {
		t.Fatal("replica rows wider than the frame decoded without error")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(16*len(wide)) {
		t.Fatalf("a %d-byte replica frame allocated %d bytes before it was rejected", len(wide), got)
	}
	hostile := map[string][]byte{
		"replica rows wider than the frame": replicaWide(1 << 10),
		"replica rows of width 0":           replicaRows(0, 2, 0),
		"replica width without rows":        replicaRows(3, 0, 0),
		"replica short of its rows":         replicaRows(2, 3, 5),
		"sync class byte 2":                 syncRows(2, 1, 1),
		"sync class byte 255":               syncRows(255, 1, 1),
		"sync empty flush of width 2":       syncRows(0, 2, 0),
		"sync partials of width 0":          syncRows(1, 0, 3),
	}
	for _, r := range retiredFrames() {
		hostile[r.name] = r.frame
	}
	// An all-gather frame of 5 floats: a one-byte word, three zero words
	// and a sign flip. Its coding must be exactly the bytes its tags claim
	// for its float count, and nothing may follow it.
	gather := EncodePayload(gatherMsg(9, 0, []float32{4, 1, 2, 3, 5}, []float32{4.0000005, 1, 2, 3, -5}))
	const head = 1 + 8 + 4 + 1 // tag, Seq, Origin, phase
	gatherWith := func(edit func(b []byte) []byte) []byte { return edit(slices.Clone(gather)) }
	hostile["gather tags claim more bytes than present"] = gatherWith(func(b []byte) []byte { b[head+4] |= 0x03; return b })
	hostile["gather tags claim fewer bytes than present"] = gatherWith(func(b []byte) []byte { b[head+5] &^= 0x03; return b })
	hostile["gather tag set past its floats"] = gatherWith(func(b []byte) []byte { b[head+5] |= 0x04; return b })
	hostile["gather trailing byte"] = gatherWith(func(b []byte) []byte { return append(b, 0) })
	hostile["gather float count above its coding"] = gatherWith(func(b []byte) []byte { b[head]++; return b })
	hostile["gather float count below its coding"] = gatherWith(func(b []byte) []byte { b[head]--; return b })
	hostile["gather float count past the frame"] = gatherWith(func(b []byte) []byte { b[head+3] = 0x80; return b })
	hostile["gather carrying loss terms"] = gatherWith(func(b []byte) []byte { return putF64s(b, []float64{0.5}) })
	for name, frame := range hostile {
		if _, err := DecodePayload(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodePayload(gather); err != nil {
		t.Fatalf("the unedited gather frame: %v", err)
	}
}

// TestSyncEncodeRefusesRaggedOrBare: one flush carries one partial width
// and one of the two classes, one replica push one row width greater than
// 0, and neither a SyncMsg nor the retired CollMsg has a frame of its own —
// all are programming errors the encoder reports at the first Send.
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
		{Iter: 1, Partials: [][]float32{{1, 2}, {3}}},
	}})
	mustPanic("third sync class", SyncBatchMsg{Flushes: []SyncMsg{
		{Iter: 1, Class: NumSyncClasses, Partials: [][]float32{{1}}},
	}})
	mustPanic("bare SyncMsg", SyncMsg{Iter: 1, Partials: [][]float32{{1}}})
	mustPanic("ragged replica", ReplicaMsg{Iter: 1, Rows: [][]float32{{1, 2}, {3}}})
	mustPanic("zero-width replica", ReplicaMsg{Iter: 1, Rows: [][]float32{{}}})
	mustPanic("retired CollMsg", CollMsg{})
}

// TestPayloadWireBytes pins the wire format byte for byte — it is a
// contract with peers running other builds: one frame each of an id-free
// replica push, a sync batch of both classes, a collective frame of each
// phase (mesh protocol 5: the all-gather chunk XOR-coded) and a plan
// (protocol 3's gap-coded layout), against fixed hex. The floats include
// −Inf and a NaN with a payload; the gather frame's words take four bytes
// (a sign flip), one (unchanged), one (a subnormal's low bit) and three (a
// NaN's payload).
func TestPayloadWireBytes(t *testing.T) {
	nan := math.Float32frombits(0x7fc00001)
	cases := []struct {
		name string
		p    any
		hex  string
	}{
		{"replica", ReplicaMsg{Iter: 7, Rows: [][]float32{{1, 2.5, float32(math.Inf(-1))}, {0, -0.125, 42}}},
			"01070000000000000003000000020000000000803f00002040000080ff00000000000000be00002842"},
		{"sync", SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 4, Class: SyncUrgent, Partials: [][]float32{{0.5, nan}, {1, 2}}},
			{Iter: 3, Class: SyncDeferred, Partials: [][]float32{{7, -2e-5}}},
			{Iter: 5},
		}}, "070300000004000000000000000002000000020000000000003f0100c07f0000803f0000004003000000000000000102000000010000000000e040acc5a7b70500000000000000000000000000000000"},
		{"fused", FusedCollMsg{Seq: 43, Origin: 2, Data: []float32{1, 2, 3, -0.5}, Loss: []float64{0.693147}},
			"082b000000000000000200000000040000000000803f0000004000004040000000bf01000000a2410a9e422ee63f"},
		{"fused-gather", gatherMsg(43, 1, []float32{1.5, 7, 0, nan}, []float32{-1.5, 7, math.Float32frombits(1), math.Float32frombits(0x7f800123)}),
			"082b0000000000000001000000010400000083000000800001220140"},
		{"plan", PlanMsg{Plan: testPlan()},
			"03040103030306120100000306020502000202010101000001010204040002010400010102040200000040000040400209080000000002000080be000000000203080000803f"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(EncodePayload(c.p)); got != c.hex {
			t.Errorf("%s frame changed:\n got  %s\n want %s", c.name, got, c.hex)
		}
	}
}

// TestByteViewMatchesLittleEndianLoop: a fixed-width run crosses the wire
// with one copy through its byte view, and on a big-endian host a swap
// pass. Both must reproduce the per-element binary.LittleEndian loop they
// replaced, bit for bit, on signed zeros, infinities, NaN payloads and
// subnormals. The swap pass is run here on a big-endian host's memory
// image of the same values, so it is tested on any host.
func TestByteViewMatchesLittleEndianLoop(t *testing.T) {
	f32 := []uint32{0, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00001, 0xffa12345, 0x00000001, 0x807fffff, 0x3fc00000, 0xaf5be6ff}
	u64 := []uint64{0, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000001, 0x0000000000000001, 0x800fffffffffffff, 0x0123456789abcdef}
	xs := make([]float32, len(f32))
	wire32, big32 := make([]byte, 4*len(f32)), make([]byte, 4*len(f32))
	for i, v := range f32 {
		xs[i] = math.Float32frombits(v)
		binary.LittleEndian.PutUint32(wire32[4*i:], v)
		binary.BigEndian.PutUint32(big32[4*i:], v)
	}
	fs := make([]float64, len(u64))
	wire64, big64 := make([]byte, 8*len(u64)), make([]byte, 8*len(u64))
	for i, v := range u64 {
		fs[i] = math.Float64frombits(v)
		binary.LittleEndian.PutUint64(wire64[8*i:], v)
		binary.BigEndian.PutUint64(big64[8*i:], v)
	}

	// This host's path, both directions.
	if got := putF32sRaw(nil, xs); !bytes.Equal(got, wire32) {
		t.Fatalf("putF32sRaw wrote %x, want %x", got, wire32)
	}
	row := make([]float32, len(f32))
	fillRow(row, wire32)
	for i, x := range row {
		if math.Float32bits(x) != f32[i] {
			t.Fatalf("fillRow element %d decoded %#x, want %#x", i, math.Float32bits(x), f32[i])
		}
	}
	if got := putU64s(nil, u64)[4:]; !bytes.Equal(got, wire64) {
		t.Fatalf("putU64s wrote %x, want %x", got, wire64)
	}
	if got := putF64s(nil, fs)[4:]; !bytes.Equal(got, wire64) {
		t.Fatalf("putF64s wrote %x, want %x", got, wire64)
	}
	r := &wireReader{b: putU64s(nil, u64)}
	if got := r.u64s(); !reflect.DeepEqual(got, u64) || r.err != nil {
		t.Fatalf("u64s decoded %x (%v), want %x", got, r.err, u64)
	}

	// A big-endian host: its memory image swaps to the wire, and the wire
	// swaps back to its memory image.
	for _, c := range []struct {
		size      int
		big, wire []byte
	}{{4, big32, wire32}, {8, big64, wire64}} {
		out := bytes.Clone(c.big)
		swapWords(out, c.size)
		if !bytes.Equal(out, c.wire) {
			t.Fatalf("%d-byte swap of the memory image gave %x, want %x", c.size, out, c.wire)
		}
		swapWords(out, c.size)
		if !bytes.Equal(out, c.big) {
			t.Fatalf("%d-byte swap of the wire gave %x, want %x", c.size, out, c.big)
		}
	}
}

// TestPlanDecodeIntoReusedBuf decodes every plan of a real oracle stream
// twice, into fresh buffers and into one PlanBuf reused for all of them,
// and requires the two decodes to agree field by field: plan, header and
// sparse batch. The batches shrink and grow (192, 48, 96, 24 examples in
// turn), so each reused decode overwrites arrays a larger plan filled last:
// a stale tail or an example slot left over would show. planIter reads
// each frame's iteration without decoding it.
func TestPlanDecodeIntoReusedBuf(t *testing.T) {
	const p = 3
	gen := data.NewGenerator(data.CriteoKaggle().Scaled(1000).WithDist(data.Uniform{}), 9)
	var batches []*data.Batch
	for i := range 16 {
		batches = append(batches, gen.Batch(i, []int{192, 48, 96, 24}[i%4]))
	}
	o := core.NewOracle(&core.SliceSource{Batches: batches}, 3, p)
	var buf PlanBuf
	slots := PlanSlots(func(int) *PlanBuf { return &buf })
	for {
		d, ok := o.Next()
		if !ok {
			break
		}
		for _, pl := range d.Plans(p) {
			frame := EncodePayload(PlanMsg{Plan: pl})
			if x, ok := planIter(frame[1:]); !ok || x != d.Iter {
				t.Fatalf("iter %d: planIter read %d, %v", d.Iter, x, ok)
			}
			fresh, err := DecodePayload(frame)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := decodePayload(frame, slots)
			if err != nil {
				t.Fatal(err)
			}
			want, got := fresh.(PlanMsg).Plan, reused.(PlanMsg).Plan
			if got != buf.Plan() {
				t.Fatalf("iter %d trainer %d: the plan was not decoded into the slot's buffer", d.Iter, pl.Trainer)
			}
			if !reflect.DeepEqual(*got.Dec.Batch, *want.Dec.Batch) {
				t.Fatalf("iter %d trainer %d: reused batch\n%+v\nfresh\n%+v", d.Iter, pl.Trainer, *got.Dec.Batch, *want.Dec.Batch)
			}
			gd, wd := *got.Dec, *want.Dec
			gd.Batch, wd.Batch = nil, nil
			if !reflect.DeepEqual(gd, wd) {
				t.Fatalf("iter %d trainer %d: reused header %+v, fresh %+v", d.Iter, pl.Trainer, gd, wd)
			}
			gp, wp := *got, *want
			gp.Dec, wp.Dec = nil, nil
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("iter %d trainer %d: reused plan\n%+v\nfresh\n%+v", d.Iter, pl.Trainer, gp, wp)
			}
		}
		o.Recycle(d)
	}
}
