package train

import (
	"slices"
	"strings"
	"testing"

	"bagpipe/internal/collective"
	"bagpipe/internal/core"
	"bagpipe/internal/transport"
)

// stagedOwner returns trainer 0 of a two-trainer engine with iteration 3
// staged from a hand-built plan: it owns ids 10, 20, 30 and 40, trainer 1
// reads 10, 20 and 40, and the next iteration reads 10, 30 and 40. So
// trainer 1 owes it an urgent flush of two partials (10, 40) and a
// deferred flush of one (20), and was pushed a replica of three rows.
func stagedOwner(t *testing.T) (*lrppTrainer, *iterRec) {
	t.Helper()
	cfg := tinyConfig()
	mesh := transport.NewInprocMesh(2)
	eng := newLRPPEngine(&cfg, mesh, collective.NewGroup(2))
	tr, err := newLRPPTrainer(eng, 0, transport.NewInProcess(newServer(cfg.Spec, 1)), mesh.Endpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	owned := []uint64{10, 20, 30, 40}
	pl := &core.Plan{
		Trainer:    0,
		Dec:        &core.Decision{Iter: 3},
		Owned:      owned,
		OwnedTTL:   []int{5, 5, 5, 5},
		OwnedUsers: []core.Ranks{0b11, 0b11, 0b01, 0b11},
		OwnedNext:  []bool{true, false, true, true},
		Prefetch:   owned,
		ReplicaOut: [][]uint64{nil, {10, 20, 40}},
	}
	rec := tr.ring.at(3)
	rec.plan = pl
	rows := make([][]float32, len(owned))
	for i := range rows {
		rows[i] = make([]float32, cfg.Spec.EmbDim)
	}
	rec.rows <- rows
	tr.stage(rec)
	return tr, rec
}

// partials returns n partials of width dim.
func partials(n, dim int) [][]float32 {
	ps := make([][]float32, n)
	for i := range ps {
		ps[i] = make([]float32, dim)
	}
	return ps
}

// TestStageBuildsSyncLists: registration lists, per reader and class, the
// slots of the owned rows that reader sends partials for, in plan order,
// and counts one flush owed per non-empty list.
func TestStageBuildsSyncLists(t *testing.T) {
	tr, rec := stagedOwner(t)
	ids := func(slots []int32) []uint64 {
		var out []uint64
		for _, s := range slots {
			out = append(out, tr.part.recs[s].id)
		}
		return out
	}
	if got := ids(rec.sync[transport.SyncUrgent][1]); !slices.Equal(got, []uint64{10, 40}) {
		t.Fatalf("urgent list for trainer 1 holds %v, want [10 40]", got)
	}
	if got := ids(rec.sync[transport.SyncDeferred][1]); !slices.Equal(got, []uint64{20}) {
		t.Fatalf("deferred list for trainer 1 holds %v, want [20]", got)
	}
	if len(rec.sync[transport.SyncUrgent][0])+len(rec.sync[transport.SyncDeferred][0]) != 0 {
		t.Fatal("the owner lists flushes from itself")
	}
	if rec.owed != 2 || !rec.registered {
		t.Fatalf("owed %d flushes (registered %v), want 2", rec.owed, rec.registered)
	}
}

// TestSyncFlushRefusals: a sync frame whose flush does not match the slot
// list its iteration's registration built — too few or too many partials,
// a class whose list is another length, a class outside the two, an
// iteration not staged here, a repeat — is refused with the rank, the
// peer, the iteration and both counts named, before any partial of the
// frame merges, even when a valid flush precedes it in the frame. A
// matching frame merges.
func TestSyncFlushRefusals(t *testing.T) {
	const dim = 8
	flush := func(iter int, c transport.SyncClass, n int) transport.SyncMsg {
		return transport.SyncMsg{Iter: iter, Class: c, Partials: partials(n, dim)}
	}
	valid := flush(3, transport.SyncUrgent, 2)
	for _, c := range []struct {
		name  string
		frame []transport.SyncMsg
		want  []string
	}{
		{"fewer partials", []transport.SyncMsg{flush(3, transport.SyncUrgent, 1)}, []string{"trainer 0", "trainer 1", "iteration 3", "1 partials", "lists 2"}},
		{"more partials", []transport.SyncMsg{flush(3, transport.SyncUrgent, 3)}, []string{"trainer 0", "trainer 1", "iteration 3", "3 partials", "lists 2"}},
		{"wrong class", []transport.SyncMsg{flush(3, transport.SyncDeferred, 2)}, []string{"trainer 0", "trainer 1", "iteration 3", "2 partials", "lists 1"}},
		{"class out of range", []transport.SyncMsg{flush(3, transport.NumSyncClasses, 2)}, []string{"trainer 0", "trainer 1", "iteration 3", "class 2"}},
		{"iteration not staged", []transport.SyncMsg{flush(4, transport.SyncUrgent, 2)}, []string{"trainer 0", "trainer 1", "iteration 4", "2 partials", "not staged", "0 listed"}},
		{"negative iteration", []transport.SyncMsg{flush(-1, transport.SyncUrgent, 2)}, []string{"iteration -1", "not staged"}},
		{"valid then short", []transport.SyncMsg{valid, flush(3, transport.SyncDeferred, 0)}, []string{"iteration 3", "0 partials", "lists 1"}},
		{"repeated", []transport.SyncMsg{valid, valid}, []string{"iteration 3", "2 partials", "lists 2", "landed before: true"}},
		{"wrong width", []transport.SyncMsg{{Iter: 3, Class: transport.SyncUrgent, Partials: partials(2, dim+1)}}, []string{"iteration 3", "width 9", "want 8"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, rec := stagedOwner(t)
			tr.mu.Lock()
			err := tr.mergeFlushesLocked(1, c.frame)
			tr.mu.Unlock()
			if err == nil {
				t.Fatal("frame merged")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("refusal %q does not say %q", err, w)
				}
			}
			for _, s := range rec.slots {
				if im, parts := tr.part.merge(s, 3); im != nil && parts[1] != nil {
					t.Fatalf("refused frame deposited a partial for id %d", tr.part.recs[s].id)
				}
			}
			if rec.owed != 2 {
				t.Fatalf("refused frame changed the flushes owed to %d", rec.owed)
			}
		})
	}
	tr, rec := stagedOwner(t)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := tr.mergeFlushesLocked(1, []transport.SyncMsg{valid, flush(3, transport.SyncDeferred, 1)}); err != nil {
		t.Fatal(err)
	}
	if rec.owed != 0 {
		t.Fatalf("both flushes landed, %d still owed", rec.owed)
	}
}

// TestReplicaPushRefusals: a replica push whose row count differs from the
// reader's plan list for its owner, or whose rows are not the run's width,
// is refused naming the reader, the owner, the iteration and both counts,
// before compute gathers a row of it.
func TestReplicaPushRefusals(t *testing.T) {
	cfg := tinyConfig()
	mesh := transport.NewInprocMesh(2)
	eng := newLRPPEngine(&cfg, mesh, collective.NewGroup(2))
	tr, err := newLRPPTrainer(eng, 1, transport.NewInProcess(newServer(cfg.Spec, 1)), mesh.Endpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	dim := cfg.Spec.EmbDim
	pl := &core.Plan{
		Trainer:     1,
		Dec:         &core.Decision{Iter: 6},
		Remote:      []uint64{10, 20, 40},
		RemoteOwner: []int{0, 0, 0},
		RemoteNext:  []bool{true, false, true},
		ReplicaFrom: 0b01,
	}
	push := func(n, width int) []transport.ReplicaMsg {
		return []transport.ReplicaMsg{{Iter: 6, Rows: partials(n, width)}, {}}
	}
	if err := tr.checkReplicas(pl, push(3, dim)); err != nil {
		t.Fatalf("matching push refused: %v", err)
	}
	for _, c := range []struct {
		name string
		reps []transport.ReplicaMsg
		want []string
	}{
		{"fewer rows", push(2, dim), []string{"trainer 1", "trainer 0", "iteration 6", "2 rows", "lists 3"}},
		{"more rows", push(4, dim), []string{"trainer 1", "trainer 0", "iteration 6", "4 rows", "lists 3"}},
		{"no rows", push(0, dim), []string{"iteration 6", "0 rows", "lists 3"}},
		{"wrong width", push(3, dim+2), []string{"iteration 6", "width 10", "want 8"}},
		{"unexpected owner", []transport.ReplicaMsg{{Iter: 6, Rows: partials(3, dim)}, {Iter: 6, Rows: partials(1, dim)}}, []string{"trainer 1", "iteration 6", "1 rows", "lists 0"}},
	} {
		err := tr.checkReplicas(pl, c.reps)
		if err == nil {
			t.Errorf("%s: push accepted", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: refusal %q does not say %q", c.name, err, w)
			}
		}
	}
}

// TestCollectiveFrameRefusals: trainer 0 of three over 10 floats (chunks
// of 3, 3 and 4) refuses a collective frame of another round than its
// phase folds next — one too far ahead, or one of a phase already folded
// — from an origin that repeats or is not a peer, or whose float or loss
// count differs from the chunk it carries, naming the rank, the peer, the
// round and both counts, before the frame is filed for any fold or unpack. The
// valid frames of a round's two phases are filed, and complete it.
func TestCollectiveFrameRefusals(t *testing.T) {
	segs := [][]float32{make([]float32, 5), make([]float32, 3), make([]float32, 2)}
	reduce := func(seq uint64, origin, n int) transport.FusedCollMsg {
		return transport.FusedCollMsg{Seq: seq, Origin: origin, Data: make([]float32, n), Loss: []float64{0.5}}
	}
	gather := func(seq uint64, origin, n int) transport.FusedCollMsg {
		packed := collective.Pack(nil, [][]float32{make([]float32, n)}, 0, make([]float32, n))
		return transport.FusedCollMsg{Seq: seq, Origin: origin, Gather: true, Floats: n, Packed: packed}
	}
	withLoss := gather(0, 1, 3)
	withLoss.Loss = []float64{1}
	for _, c := range []struct {
		name   string
		before []transport.FusedCollMsg // delivered first, and accepted
		folded bool                     // the reduce-scatter of round 0 folds before the frame
		frame  transport.FusedCollMsg
		want   []string
	}{
		{"round ahead", nil, false, reduce(1, 1, 3), []string{"trainer 0", "trainer 1", "round 1", "expected round 0"}},
		{"two rounds ahead", nil, true, reduce(2, 2, 3), []string{"trainer 0", "trainer 2", "round 2", "expected round 1"}},
		{"phase already folded", nil, true, reduce(0, 1, 3), []string{"trainer 0", "trainer 1", "round 0", "expected round 1"}},
		{"gather ahead", nil, false, gather(1, 2, 4), []string{"all-gather", "trainer 2", "round 1", "expected round 0"}},
		{"repeated origin", []transport.FusedCollMsg{reduce(0, 1, 3)}, false, reduce(0, 1, 3), []string{"trainer 0", "second", "trainer 1", "round 0", "3 floats", "carried 3"}},
		{"self", nil, false, reduce(0, 0, 3), []string{"trainer 0", "round 0", "not a peer"}},
		{"origin out of range", nil, false, reduce(0, 3, 3), []string{"trainer 3", "not a peer of 3"}},
		{"short chunk", nil, false, reduce(0, 2, 2), []string{"trainer 0", "trainer 2", "round 0", "2 floats", "holds 3"}},
		{"gather of the receiver's chunk", nil, false, gather(0, 2, 3), []string{"trainer 0", "trainer 2", "round 0", "3 floats", "trainer 2's chunk holds 4"}},
		{"loss terms", nil, false, transport.FusedCollMsg{Seq: 0, Origin: 1, Data: make([]float32, 3)}, []string{"trainer 1", "round 0", "0 loss terms", "holds 3 and 1"}},
		{"gather with loss", nil, false, withLoss, []string{"all-gather", "1 loss terms", "holds 3 and 0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mc := newMeshColl(0, 3, nil, nil, segs, 1)
			if c.folded {
				for _, m := range []transport.FusedCollMsg{reduce(0, 1, 3), reduce(0, 2, 3)} {
					if err := mc.deliver(m); err != nil {
						t.Fatal(err)
					}
				}
				mc.await(phaseReduce)
				mc.done(phaseReduce)
			}
			for _, m := range c.before {
				if err := mc.deliver(m); err != nil {
					t.Fatal(err)
				}
			}
			filed := mc.filled
			err := mc.deliver(c.frame)
			if err == nil {
				t.Fatal("frame filed")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("refusal %q does not say %q", err, w)
				}
			}
			if mc.filled != filed {
				t.Fatalf("refused frame changed the filed origins from %b to %b", filed, mc.filled)
			}
		})
	}
	mc := newMeshColl(0, 3, nil, nil, segs, 1)
	for _, m := range []transport.FusedCollMsg{gather(0, 2, 4), reduce(0, 2, 3), gather(0, 1, 3), reduce(0, 1, 3)} {
		if err := mc.deliver(m); err != nil {
			t.Fatal(err)
		}
	}
	mc.await(phaseReduce)
	mc.done(phaseReduce)
	if err := mc.deliver(reduce(1, 1, 3)); err != nil {
		t.Fatalf("the next round's reduce-scatter frame refused while the all-gather is open: %v", err)
	}
	mc.await(phaseGather)
	mc.done(phaseGather)
	if mc.next != [numPhases]uint64{1, 1} || mc.filled != [numPhases]rankBits{1 << 1, 0} {
		t.Fatalf("after round 0: next rounds %v, filed origins %b", mc.next, mc.filled)
	}
}
