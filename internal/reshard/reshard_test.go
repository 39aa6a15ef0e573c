package reshard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

func zeroJitter(time.Duration) time.Duration { return 0 }

// newTestTier builds a capacity-wide in-process tier routed over its first S
// servers (the rest are reshard spares), each child behind a fault injector,
// plus the S=1 reference every conformance check certifies against.
func newTestTier(capacity, S, R int) (*transport.ShardedStore, []*transport.FaultStore, []*embed.Server, *embed.Server, transport.Store) {
	servers := make([]*embed.Server, capacity)
	faults := make([]*transport.FaultStore, capacity)
	children := make([]transport.Store, capacity)
	for i := range servers {
		servers[i] = embed.NewServer(3, 4, 11, 0.1)
		faults[i] = transport.NewFaultStore(transport.NewInProcess(servers[i]), i)
		children[i] = faults[i]
	}
	st := transport.NewTier(children, transport.TierOptions{
		Replicate:      R,
		InitialServers: S,
		Retries:        2,
		Backoff:        time.Millisecond,
		Jitter:         zeroJitter,
	})
	ref := embed.NewServer(3, 4, 11, 0.1)
	return st, faults, servers, ref, transport.NewInProcess(ref)
}

// fastOpts keeps migration rounds snappy in tests.
func fastOpts(to int) Options {
	return Options{To: to, TransferOptions: transport.TransferOptions{RoundBackoff: time.Millisecond}}
}

// TestReshardGrowShrink is the core conformance matrix: the tier migrates
// between widths in both directions, at R=1 and R=2, with writes before and
// after, and the final state certifies bit-identical against the S=1
// reference — fingerprint and replicated merge both (the merge also proves
// the settle-time RetainOwned shed alien rows, since it rejects replicas
// that disagree).
func TestReshardGrowShrink(t *testing.T) {
	for _, tc := range []struct{ S, To, R int }{
		{2, 4, 1}, {2, 4, 2}, {4, 2, 1}, {4, 2, 2}, {2, 3, 2}, {3, 5, 2},
	} {
		t.Run(fmt.Sprintf("S%d_to%d_R%d", tc.S, tc.To, tc.R), func(t *testing.T) {
			capacity := max(tc.S, tc.To)
			st, _, servers, ref, refStore := newTestTier(capacity, tc.S, tc.R)

			stamp := float32(0)
			step := func(ids []uint64) {
				t.Helper()
				stamp++
				rows, refRows := st.Fetch(ids), refStore.Fetch(ids)
				for i := range rows {
					for j := range rows[i] {
						if rows[i][j] != refRows[i][j] {
							t.Fatalf("id %d col %d: tier %v != reference %v", ids[i], j, rows[i][j], refRows[i][j])
						}
					}
					rows[i][0], refRows[i][0] = stamp, stamp
				}
				st.Write(ids, rows)
				refStore.Write(ids, refRows)
			}
			wide := make([]uint64, 60)
			for i := range wide {
				wide[i] = uint64(i)
			}
			step(wide)
			step(wide[:35])

			rep, err := Run(st, fastOpts(tc.To))
			if err != nil {
				t.Fatalf("reshard %d->%d: %v", tc.S, tc.To, err)
			}
			if rep.Aborted || rep.From != tc.S || rep.To != tc.To || rep.Parts != tc.To {
				t.Fatalf("report = %+v, want From %d To %d Parts %d not aborted", rep, tc.S, tc.To, tc.To)
			}
			if got := st.Servers(); got != tc.To {
				t.Fatalf("Servers() = %d after reshard, want %d", got, tc.To)
			}
			if rt := st.Routing(); !rt.Settled() || rt.Epoch == 0 {
				t.Fatalf("routing %+v after reshard, want settled at a bumped epoch", rt)
			}
			h := st.TierHealth()
			if h.RoutingEpoch == 0 || h.ReshardParts != int64(tc.To) {
				t.Fatalf("TierHealth epoch %d parts %d, want epoch > 0, parts %d", h.RoutingEpoch, h.ReshardParts, tc.To)
			}
			if h.ReshardRows != int64(rep.Rows) || h.ReshardBytes != rep.Bytes {
				t.Fatalf("TierHealth reshard rows/bytes %d/%d != report %d/%d", h.ReshardRows, h.ReshardBytes, rep.Rows, rep.Bytes)
			}
			if tc.To > tc.S && (rep.Rows == 0 || rep.Bytes == 0) {
				t.Fatalf("grow %d->%d streamed %d rows, %d bytes: want both > 0", tc.S, tc.To, rep.Rows, rep.Bytes)
			}

			// Live traffic keeps certifying after the cutover...
			step(wide[:48])
			step(wide)

			// ...and the final state is bit-identical to the reference.
			if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
				t.Fatalf("tier fingerprint %x != reference %x after reshard", fp, want)
			}
			merged, err := embed.MergeTierReplicated(servers[:tc.To], tc.R, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := embed.Diff(ref, merged); len(d) != 0 {
				t.Fatalf("merged tier differs from reference at %v", d)
			}
		})
	}
}

// TestReshardRoundTripUnderTraffic races both migration directions against
// live writers and a live reader: the tier grows 2->4, shrinks back 4->2
// and grows 2->4 again while three writers stamp disjoint id sets
// (mirrored to the reference) and a reader drains ReadFetch. Nothing may
// error, and the final state must certify bit-identical. The last grow
// re-admits the spares the shrink retired with their rows untouched: every
// id is rewritten while they sit retired, and that grow's writers touch
// only half the ids, so the other half's stale copies — marked by the live
// writes of their last membership — verify only because the migration
// resets each target first. Run under -race in CI.
func TestReshardRoundTripUnderTraffic(t *testing.T) {
	const S, To, R, W, N = 2, 4, 2, 3, 36
	st, _, _, ref, refStore := newTestTier(To, S, R)

	// traffic starts the writers on the ids below n and the reader; the
	// returned func stops them.
	traffic := func(n uint64) func() {
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var ids []uint64
				for id := uint64(w); id < n; id += W {
					ids = append(ids, id)
				}
				rows := make([][]float32, len(ids))
				stamp := float32(0)
				for !stop.Load() {
					stamp++
					for i := range rows {
						rows[i] = []float32{stamp, float32(w), float32(ids[i]), 3}
					}
					st.Write(ids, rows)
					refStore.Write(ids, rows)
				}
			}(w)
		}
		wg.Add(1)
		readErr := make(chan error, 1)
		go func() {
			defer wg.Done()
			ids := []uint64{0, 5, 11, 17, 23, 31}
			for !stop.Load() {
				rows, err := st.ReadFetch(ids, nil)
				if err != nil {
					readErr <- err
					return
				}
				transport.Rows(st.Dim()).PutN(rows)
				transport.PutRowSlice(rows)
			}
		}()
		time.Sleep(5 * time.Millisecond)
		return func() {
			t.Helper()
			stop.Store(true)
			wg.Wait()
			select {
			case err := <-readErr:
				t.Fatalf("ReadFetch during reshard: %v", err)
			default:
			}
		}
	}

	stop := traffic(N)
	if rep, err := Run(st, fastOpts(To)); err != nil || rep.Aborted {
		t.Fatalf("grow under traffic: %+v, %v", rep, err)
	}
	if rep, err := Run(st, fastOpts(S)); err != nil || rep.Aborted {
		t.Fatalf("shrink under traffic: %+v, %v", rep, err)
	}
	stop()
	if got := st.Servers(); got != S {
		t.Fatalf("Servers() = %d after the shrink, want %d", got, S)
	}
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("tier fingerprint %x != reference %x after the shrink", fp, want)
	}
	if cert, err := transport.Certify(st, ref); err != nil || len(cert.Differ) != 0 {
		t.Fatalf("tier certificate %+v, err %v after the shrink", cert, err)
	}

	// Rewrite every id while servers 2 and 3 sit retired: their copies go
	// stale.
	ids := make([]uint64, N)
	rows := make([][]float32, N)
	for i := range ids {
		ids[i], rows[i] = uint64(i), []float32{-1, 0, float32(i), 7}
	}
	st.Write(ids, rows)
	refStore.Write(ids, rows)

	stop = traffic(N / 2)
	if rep, err := Run(st, fastOpts(To)); err != nil || rep.Aborted {
		t.Fatalf("grow onto the retired spares under traffic: %+v, %v", rep, err)
	}
	stop()
	if got := st.Servers(); got != To {
		t.Fatalf("Servers() = %d after the round trip, want %d", got, To)
	}
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("tier fingerprint %x != reference %x after reshard round trip", fp, want)
	}
	if cert, err := transport.Certify(st, ref); err != nil || len(cert.Differ) != 0 {
		t.Fatalf("tier certificate %+v, err %v after reshard round trip", cert, err)
	}
}

// killOnLog returns a Log hook that fires kill exactly once when a progress
// line containing marker is emitted.
func killOnLog(marker string, kill func()) func(string, ...any) {
	var once sync.Once
	return func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), marker) {
			once.Do(kill)
		}
	}
}

// TestReshardTargetDeathCompletes kills a migration *target* mid-reshard at
// R=2: the migration must complete on the surviving replicas (the dead
// target's partitions have live authoritative members), the tier settles at
// the new width with the corpse attributed dead — and a replacement then
// rejoins into the NEW routing epoch and the NEW ownership space, never its
// pre-reshard one (the Reviver-vs-reshard contract).
func TestReshardTargetDeathCompletes(t *testing.T) {
	const S, To, R = 2, 4, 2
	st, faults, _, ref, refStore := newTestTier(To, S, R)

	ids := make([]uint64, 48)
	for i := range ids {
		ids[i] = uint64(i)
	}
	st.Write(ids, st.Fetch(ids))
	refStore.Write(ids, refStore.Fetch(ids))

	opts := fastOpts(To)
	opts.Log = killOnLog("partition 2/4 moved", func() { faults[3].SetDown(true) })
	rep, err := Run(st, opts)
	if err != nil {
		t.Fatalf("reshard with a dying target: %v", err)
	}
	if rep.Aborted || rep.Parts != To {
		t.Fatalf("report = %+v, want all %d partitions moved", rep, To)
	}
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 3 {
		t.Fatalf("DeadServers() = %v, want [3]", dead)
	}
	if got := st.Servers(); got != To {
		t.Fatalf("Servers() = %d, want %d", got, To)
	}
	// The survivors hold everything: writes and the certificate still work.
	st.Write(ids[:30], st.Fetch(ids[:30]))
	refStore.Write(ids[:30], refStore.Fetch(ids[:30]))
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("tier fingerprint %x != reference %x after target death", fp, want)
	}

	// Rejoin the corpse: a pristine replacement must land in the
	// settled (new) routing epoch and resync the width-To partitions it owns
	// now — not the width-S partitions the old table would have given it.
	fresh := embed.NewServer(3, 4, 11, 0.1)
	if err := st.Rejoin(3, transport.NewFaultStore(transport.NewInProcess(fresh), 3), transport.RejoinOptions{}); err != nil {
		t.Fatalf("rejoin after reshard: %v", err)
	}
	if got, want := fresh.RoutingEpoch(), st.Routing().Epoch; got != want {
		t.Fatalf("rejoiner landed at routing epoch %d, tier is at %d", got, want)
	}
	for _, p := range []int{3, 2} { // server 3's replica set in the new space
		if got, want := fresh.FingerprintPart(p, To), ref.FingerprintPart(p, To); got != want {
			t.Fatalf("rejoined server partition %d-of-%d fingerprint %x != reference %x", p, To, got, want)
		}
	}
	st.Write(ids, st.Fetch(ids))
	refStore.Write(ids, refStore.Fetch(ids))
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("tier fingerprint %x != reference %x after post-reshard rejoin", fp, want)
	}
}

// TestReshardTargetResetFails kills a grow target between its admission
// and its reset: the failed reset must condemn it on the spot — a stream
// must never reach a target whose old marks it did not clear — and the
// migration then completes on the surviving replicas at R=2, or aborts
// attributed at R=1, where the target is its new partition's only holder.
func TestReshardTargetResetFails(t *testing.T) {
	const S, To = 2, 4
	for _, R := range []int{2, 1} {
		t.Run(fmt.Sprintf("R%d", R), func(t *testing.T) {
			st, faults, _, ref, refStore := newTestTier(To, S, R)
			ids := make([]uint64, 48)
			for i := range ids {
				ids[i] = uint64(i)
			}
			st.Write(ids, st.Fetch(ids))
			refStore.Write(ids, refStore.Fetch(ids))

			var resetFailed, liveAfter atomic.Bool
			opts := fastOpts(To)
			opts.Log = func(format string, args ...any) {
				switch line := fmt.Sprintf(format, args...); {
				case strings.Contains(line, "target server 3 live"):
					faults[3].SetDown(true)
				case strings.Contains(line, "reset of server 3 failed"):
					resetFailed.Store(true)
					liveAfter.Store(st.LiveServer(3))
				}
			}
			rep, err := Run(st, opts)
			if !resetFailed.Load() {
				t.Fatal("no reset failure logged for server 3")
			}
			if liveAfter.Load() {
				t.Fatal("server 3 still live after its reset failed")
			}
			if R == 1 {
				var te *transport.TierError
				if !errors.As(err, &te) || te.Op != "reshard" || rep == nil || !rep.Aborted {
					t.Fatalf("R=1 reshard without its target = %+v, %v; want an aborted op-reshard *TierError", rep, err)
				}
				if got := st.Servers(); got != S {
					t.Fatalf("Servers() = %d after the abort, want %d", got, S)
				}
			} else {
				if err != nil || rep.Aborted || rep.Parts != To {
					t.Fatalf("R=2 reshard without one target = %+v, %v; want all %d partitions moved", rep, err, To)
				}
				if got := st.Servers(); got != To {
					t.Fatalf("Servers() = %d, want %d", got, To)
				}
				if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 3 {
					t.Fatalf("DeadServers() = %v, want [3]", dead)
				}
			}
			if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
				t.Fatalf("tier fingerprint %x != reference %x", fp, want)
			}
		})
	}
}

// TestReshardSourceDeathAborts kills the only holder of an unmigrated
// partition (R=1) mid-reshard: with nowhere to stream from, the migration
// must abort cleanly — an attributed op-"reshard" *transport.TierError, the
// tier settled back at the old width, surviving old-space state intact and
// alien streamed rows shed. No hang, no half-migrated state served.
func TestReshardSourceDeathAborts(t *testing.T) {
	const S, To = 2, 4
	st, faults, servers, ref, refStore := newTestTier(To, S, 1)

	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(i)
	}
	st.Write(ids, st.Fetch(ids))
	refStore.Write(ids, refStore.Fetch(ids))

	opts := fastOpts(To)
	opts.MaxRounds = 3
	opts.Log = killOnLog("partition 2/4 moved", func() { faults[0].SetDown(true) })
	rep, err := Run(st, opts)
	if err == nil {
		t.Fatal("reshard with every source of a partition dead reported success")
	}
	var te *transport.TierError
	if !errors.As(err, &te) || te.Op != "reshard" {
		t.Fatalf("abort error %v, want an op-reshard *transport.TierError", err)
	}
	if rep == nil || !rep.Aborted {
		t.Fatalf("report = %+v, want Aborted", rep)
	}
	rt := st.Routing()
	if !rt.Settled() || rt.NewS != S {
		t.Fatalf("routing %+v after abort, want settled back at width %d", rt, S)
	}
	if got := st.Servers(); got != S {
		t.Fatalf("Servers() = %d after abort, want %d", got, S)
	}
	// The surviving old-space partition is untouched and clean of aliens:
	// its direct fingerprint matches the reference in the OLD space.
	if got, want := servers[1].FingerprintPart(1, S), ref.FingerprintPart(1, S); got != want {
		t.Fatalf("surviving partition 1 fingerprint %x != reference %x after abort", got, want)
	}
	// Fenced clients self-heal back onto the old table: ops on the surviving
	// partition keep certifying (partition 0 died with its only replica).
	odd := make([]uint64, 0, len(ids)/2)
	for _, id := range ids {
		if id%2 == 1 {
			odd = append(odd, id)
		}
	}
	rows, refRows := st.Fetch(odd), refStore.Fetch(odd)
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != refRows[i][j] {
				t.Fatalf("id %d col %d after abort: tier %v != reference %v", odd[i], j, rows[i][j], refRows[i][j])
			}
		}
	}
	st.Write(odd, rows)
	refStore.Write(odd, refRows)
	if got, want := servers[1].FingerprintPart(1, S), ref.FingerprintPart(1, S); got != want {
		t.Fatalf("surviving partition 1 fingerprint %x != reference %x after post-abort writes", got, want)
	}
}

// TestRejoinDuringReshardDeferred pins the rejoin-vs-reshard interlock: a
// dead server cannot begin a rejoin while the tier is mid-reshard (the
// routing is unsettled, so the rejoiner's ownership is undecided), and the
// refusal is clean — the same rejoin lands once the tier settles.
func TestRejoinDuringReshardDeferred(t *testing.T) {
	const S, R = 2, 2
	st, faults, _, _, _ := newTestTier(4, S, R)
	ids := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	st.Write(ids, st.Fetch(ids))

	faults[1].SetDown(true)
	st.Write(ids, st.Fetch(ids)) // condemn server 1
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}
	faults[1].SetDown(false)

	// Mid-reshard: an unsettled table is installed (as the coordinator's
	// first dual push would).
	cur := st.Routing().Epoch
	mid := &transport.RoutingTable{Epoch: cur + 1, OldS: S, NewS: 4,
		State: []transport.PartState{transport.PartDual, transport.PartPending, transport.PartPending, transport.PartPending}}
	if err := st.PushRouting(mid); err != nil {
		t.Fatal(err)
	}
	fresh := embed.NewServer(3, 4, 11, 0.1)
	err := st.BeginRejoin(1, transport.NewFaultStore(transport.NewInProcess(fresh), 1))
	if err == nil || !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("BeginRejoin mid-reshard = %v, want a deferred-for-resharding refusal", err)
	}
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v after refused rejoin, want [1] (still cleanly dead)", dead)
	}

	// Settled again: the same rejoin goes through, at the settled epoch.
	if err := st.PushRouting(&transport.RoutingTable{Epoch: cur + 2, OldS: S, NewS: S}); err != nil {
		t.Fatal(err)
	}
	if err := st.Rejoin(1, transport.NewFaultStore(transport.NewInProcess(fresh), 1), transport.RejoinOptions{}); err != nil {
		t.Fatalf("rejoin after settle: %v", err)
	}
	if got, want := fresh.RoutingEpoch(), cur+2; got != want {
		t.Fatalf("rejoiner landed at routing epoch %d, want %d", got, want)
	}
}

// TestRunValidation pins the pre-flight rejections: each leaves the tier
// untouched (no routing epoch consumed).
func TestRunValidation(t *testing.T) {
	st, _, _, _, _ := newTestTier(4, 2, 2)
	epoch0 := st.Routing().Epoch
	for _, tc := range []struct {
		to   int
		want string
	}{
		{2, "already 2 wide"},
		{5, "over tier capacity"},
		{1, "below replication factor"},
		{0, "target width"},
		{-3, "target width"},
	} {
		if _, err := Run(st, fastOpts(tc.to)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Run(To=%d) = %v, want error containing %q", tc.to, err, tc.want)
		}
	}
	if e := st.Routing().Epoch; e != epoch0 {
		t.Fatalf("validation failures consumed routing epochs: %d -> %d", epoch0, e)
	}

	// A second coordinator cannot start while a migration is in flight.
	mid := &transport.RoutingTable{Epoch: epoch0 + 1, OldS: 2, NewS: 4,
		State: make([]transport.PartState, 4)}
	if err := st.PushRouting(mid); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(st, fastOpts(4)); err == nil || !strings.Contains(err.Error(), "already resharding") {
		t.Fatalf("Run mid-reshard = %v, want an already-resharding refusal", err)
	}
}
