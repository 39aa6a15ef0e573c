package transport

import (
	"reflect"
	"testing"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// benchOracle is the oracle over the first n batches of a benchmark-shaped
// stream at seed 42: Criteo/100 at dim 16 with uniform keys (train-tcp-cold)
// or hot-tail keys (the other three workloads), batch 256, ℒ = 32, p
// trainers, comm-aware placement.
func benchOracle(uniform bool, n, p int) *core.Oracle {
	spec := data.CriteoKaggle().Scaled(100).WithEmbDim(16)
	if uniform {
		spec = spec.WithDist(data.Uniform{})
	}
	return core.NewOracle(core.NewGeneratorSource(data.NewGenerator(spec, 42), 256, n), 32, p)
}

// samePlan fails t unless got, a decoded plan, holds every field of want,
// and of want's batch exactly the destination's examples, in a batch of the
// full length.
func samePlan(t *testing.T, what string, want, got *core.Plan) {
	t.Helper()
	wd, gd := want.Dec, got.Dec
	for _, f := range []struct {
		name string
		w, g any
	}{
		{"Trainer", want.Trainer, got.Trainer},
		{"Owned", want.Owned, got.Owned},
		{"OwnedTTL", want.OwnedTTL, got.OwnedTTL},
		{"OwnedUsers", want.OwnedUsers, got.OwnedUsers},
		{"OwnedNext", want.OwnedNext, got.OwnedNext},
		{"Prefetch", want.Prefetch, got.Prefetch},
		{"Expiring", want.Expiring, got.Expiring},
		{"ReplicaOut", want.ReplicaOut, got.ReplicaOut},
		{"Remote", want.Remote, got.Remote},
		{"RemoteOwner", want.RemoteOwner, got.RemoteOwner},
		{"RemoteNext", want.RemoteNext, got.RemoteNext},
		{"ReplicaFrom", want.ReplicaFrom, got.ReplicaFrom},
		{"Iter", wd.Iter, gd.Iter},
		{"Assign", wd.Assign, gd.Assign},
		{"Batch.Index", wd.Batch.Index, gd.Batch.Index},
		{"batch size", len(wd.Batch.Examples), len(gd.Batch.Examples)},
	} {
		if !reflect.DeepEqual(f.w, f.g) {
			t.Fatalf("%s: %s decoded as %v, want %v", what, f.name, f.g, f.w)
		}
	}
	for i, ex := range wd.Batch.Examples {
		if wd.Assign[i] != want.Trainer {
			ex = data.Example{}
		}
		if g := gd.Batch.Examples[i]; !reflect.DeepEqual(ex, g) {
			t.Fatalf("%s: example %d decoded as %+v, want %+v", what, i, g, ex)
		}
	}
}

// TestPlanCodecRoundTrip: every plan of both benchmark-shaped streams, at
// P = 2, 3 and 4, decodes field by field to the plan that was encoded,
// fresh and into one PlanBuf reused for every plan of the stream, and
// PayloadSize predicts its frame's length.
func TestPlanCodecRoundTrip(t *testing.T) {
	for _, uniform := range []bool{true, false} {
		for p := 2; p <= 4; p++ {
			var buf PlanBuf
			slots := PlanSlots(func(int) *PlanBuf { return &buf })
			o := benchOracle(uniform, 40, p)
			for d, ok := o.Next(); ok; d, ok = o.Next() {
				for _, pl := range d.Plans(p) {
					frame := EncodePayload(PlanMsg{Plan: pl})
					if n := PayloadSize(PlanMsg{Plan: pl}); n != len(frame) {
						t.Fatalf("PayloadSize %d, frame of %d bytes", n, len(frame))
					}
					fresh, err := DecodePayload(frame)
					if err != nil {
						t.Fatalf("uniform %v P=%d iter %d trainer %d: %v", uniform, p, d.Iter, pl.Trainer, err)
					}
					reused, err := decodePayload(frame, slots)
					if err != nil {
						t.Fatal(err)
					}
					if reused.(PlanMsg).Plan != buf.Plan() {
						t.Fatal("the plan was not decoded into the slot's buffer")
					}
					samePlan(t, "fresh", pl, fresh.(PlanMsg).Plan)
					samePlan(t, "reused", pl, buf.Plan())
					pl.Release()
				}
				o.Recycle(d)
			}
		}
	}
}

// TestPlanBytesPerIter bounds what a plan costs on the wire: replaying the
// train-tcp-cold stream (uniform keys) and the hot-tail stream at seed 42
// over the benchmark's 314 batches at P = 2, trainer 1's encoded plan
// averages at most 34 000 and 21 000 bytes per iteration (mesh protocol 3
// writes 31 737 and 20 024; the fixed-width layout before it wrote about
// 126 900 and 52 700). A decode into a warmed PlanBuf allocates nothing.
func TestPlanBytesPerIter(t *testing.T) {
	for _, c := range []struct {
		name    string
		uniform bool
		bound   float64
	}{{"uniform", true, 34000}, {"hot-tail", false, 21000}} {
		var bytes, iters int
		var last []byte
		o := benchOracle(c.uniform, 314, 2)
		for d, ok := o.Next(); ok; d, ok = o.Next() {
			plans := d.Plans(2)
			last = EncodePayload(PlanMsg{Plan: plans[1]})
			bytes += len(last)
			iters++
			plans[0].Release()
			plans[1].Release()
			o.Recycle(d)
		}
		perIter := float64(bytes) / float64(iters)
		t.Logf("%s: %d plans, %.0f bytes per iteration", c.name, iters, perIter)
		if perIter > c.bound {
			t.Errorf("%s: %.0f plan bytes per iteration, bound %.0f", c.name, perIter, c.bound)
		}
		var buf PlanBuf
		slots := PlanSlots(func(int) *PlanBuf { return &buf })
		if _, err := decodePayload(last, slots); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() { decodePayload(last, slots) }); a != 0 {
			t.Errorf("%s: a decode into a warmed PlanBuf allocates %.0f objects", c.name, a)
		}
	}
}
