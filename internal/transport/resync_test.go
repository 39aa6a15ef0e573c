package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bagpipe/internal/embed"
)

// zeroJitter makes retry timing deterministic in tests.
func zeroJitter(time.Duration) time.Duration { return 0 }

// freshServer builds a pristine replacement for a killed tier server (same
// ctor parameters as faultTier's servers): a new server, whose live-write
// marks start clear, as a respawned -serve process's do.
func freshServer() *embed.Server { return embed.NewServer(3, 4, 11, 0.1) }

// rejoinerParts lists the partitions server s holds under replication R:
// s, s−1, …, s−R+1 on the ownership ring.
func rejoinerParts(s, S, R int) []int {
	parts := make([]int, 0, R)
	for k := 0; k < R; k++ {
		parts = append(parts, ((s-k)%S+S)%S)
	}
	return parts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRejoinReplicated is the core dead → resync → live conformance test:
// a server dies mid-run, a pristine recovering replacement rejoins through
// the anti-entropy transfer, and the whole tier — including the rejoiner's
// own partitions — certifies bit-identical to the S=1 reference, for both
// R=2 and R=3.
func TestRejoinReplicated(t *testing.T) {
	for _, tc := range []struct{ S, R int }{{3, 2}, {4, 3}} {
		t.Run(fmt.Sprintf("S%dR%d", tc.S, tc.R), func(t *testing.T) {
			var revived []int
			st, faults, tier, ref, refStore := faultTier(tc.S, TierOptions{
				Replicate: tc.R,
				Retries:   2,
				Backoff:   time.Millisecond,
				Jitter:    zeroJitter,
			})
			st.SubscribeRevived(func(s int) { revived = append(revived, s) })

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

			wide := make([]uint64, 40)
			for i := range wide {
				wide[i] = uint64(i)
			}
			step(wide)
			faults[1].SetDown(true) // kill server 1 mid-run
			step(wide[:25])
			if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
				t.Fatalf("DeadServers() = %v, want [1]", dead)
			}

			// Respawn: a pristine recovering replacement rejoins over a new
			// connection (new incarnation).
			fresh := freshServer()
			if err := st.Rejoin(1, NewFaultStore(NewInProcess(fresh), 1), RejoinOptions{}); err != nil {
				t.Fatalf("rejoin: %v", err)
			}
			if down := st.DownServers(); len(down) != 0 {
				t.Fatalf("DownServers() = %v after certified rejoin, want none", down)
			}
			if len(revived) != 1 || revived[0] != 1 {
				t.Fatalf("revival subscribers saw %v, want [1]", revived)
			}
			h := st.TierHealth()
			if h.Revived != 1 {
				t.Fatalf("TierHealth.Revived = %d, want 1", h.Revived)
			}
			if h.ResyncRows == 0 {
				t.Fatal("TierHealth.ResyncRows = 0: the anti-entropy transfer streamed nothing")
			}

			// Live writes after the rejoin go to the rejoiner too.
			step(wide[:30])

			// The rejoiner's own partitions, fingerprinted directly (not via
			// the tier's routing), match the reference.
			for _, p := range rejoinerParts(1, tc.S, tc.R) {
				if got, want := fresh.FingerprintPart(p, tc.S), ref.FingerprintPart(p, tc.S); got != want {
					t.Fatalf("rejoined server partition %d fingerprint %x != reference %x", p, got, want)
				}
			}
			// Full-tier certification, all three ways, with NO dead servers.
			if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
				t.Fatalf("tier fingerprint %x != reference %x after rejoin", fp, want)
			}
			live := append([]*embed.Server(nil), tier...)
			live[1] = fresh
			merged, err := embed.MergeTierReplicated(live, tc.R, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := embed.Diff(ref, merged); len(d) != 0 {
				t.Fatalf("merged tier differs from reference at %v", d)
			}
			if cert, err := Certify(st, ref); err != nil || len(cert.Differ) != 0 {
				t.Fatalf("tier certificate %+v, err %v after rejoin", cert, err)
			}

			// Writes after the rejoin keep certifying.
			step(wide)
			if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
				t.Fatalf("tier fingerprint %x != reference %x after the rejoin's writes", fp, want)
			}
		})
	}
}

// TestRejoinUnderConcurrentWriters races the anti-entropy transfer against
// live mutating traffic: writers keep writing monotone stamps to disjoint
// id sets (mirrored to the reference) through the kill, the resync, and
// the re-admission. Run under -race in CI.
func TestRejoinUnderConcurrentWriters(t *testing.T) {
	const S, R, W = 3, 2, 3
	st, faults, _, ref, refStore := faultTier(S, TierOptions{
		Replicate: R,
		Retries:   2,
		Backoff:   time.Millisecond,
		Jitter:    zeroJitter,
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint64, 0, 12)
			for id := uint64(w); id < 36; id += W {
				ids = append(ids, id)
			}
			rows := make([][]float32, len(ids))
			stamp := float32(0)
			for !stop.Load() {
				stamp++
				for i := range rows {
					rows[i] = []float32{stamp, float32(w), float32(ids[i]), 3}
				}
				// Per-id single-writer discipline: the same values land in
				// the tier and the reference, in the same per-id order.
				st.Write(ids, rows)
				refStore.Write(ids, rows)
			}
		}(w)
	}

	time.Sleep(10 * time.Millisecond)
	faults[1].SetDown(true)
	waitFor(t, "writers to condemn server 1", func() bool {
		dead := st.DeadServers()
		return len(dead) == 1 && dead[0] == 1
	})

	fresh := freshServer()
	if err := st.Rejoin(1, NewFaultStore(NewInProcess(fresh), 1), RejoinOptions{}); err != nil {
		t.Fatalf("rejoin under concurrent writers: %v", err)
	}
	if down := st.DownServers(); len(down) != 0 {
		t.Fatalf("DownServers() = %v after rejoin", down)
	}

	stop.Store(true)
	wg.Wait()
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("tier fingerprint %x != reference %x after rejoin under write traffic", fp, want)
	}
	for _, p := range rejoinerParts(1, S, R) {
		if got, want := fresh.FingerprintPart(p, S), ref.FingerprintPart(p, S); got != want {
			t.Fatalf("rejoined server partition %d fingerprint %x != reference %x", p, got, want)
		}
	}
}

// gatedLink holds its next TryWrite, once armed, until the test releases
// it: a write the tier has routed but the server has not yet applied.
type gatedLink struct {
	Link
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gatedLink) TryWrite(ids []uint64, rows [][]float32) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Link.TryWrite(ids, rows)
}

// TestRejoinWaitsOutInFlightWrite pins the rejoin's flip barrier: a write
// that skipped the dead server and is still in flight to its replica peer
// when the rejoin starts must land before any transfer round snapshots the
// peer — otherwise the rejoiner certifies without it and never receives
// it.
func TestRejoinWaitsOutInFlightWrite(t *testing.T) {
	const S, R = 3, 2
	tier := testTier(S)
	faults := make([]*FaultStore, S)
	children := make([]Store, S)
	for i, srv := range tier {
		faults[i] = NewFaultStore(NewInProcess(srv), i)
		children[i] = faults[i]
	}
	gate := &gatedLink{Link: faults[2], entered: make(chan struct{}), release: make(chan struct{})}
	children[2] = gate
	st := NewTier(children, TierOptions{Replicate: R, Retries: 1, Backoff: time.Millisecond, Jitter: zeroJitter})
	ref := embed.NewServer(3, 4, 11, 0.1)
	refStore := NewInProcess(ref)

	stamp := float32(0)
	step := func(ids []uint64) {
		stamp++
		rows, refRows := st.Fetch(ids), refStore.Fetch(ids)
		for i := range rows {
			rows[i][0], refRows[i][0] = stamp, stamp
		}
		st.Write(ids, rows)
		refStore.Write(ids, refRows)
	}
	ids := make([]uint64, 30)
	for i := range ids {
		ids[i] = uint64(i)
	}
	step(ids)
	faults[1].SetDown(true)
	step(ids) // condemns server 1
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}

	// id 4 is in partition 1 (ring 1, 2): the write skips dead server 1 and
	// blocks on server 2.
	gate.armed.Store(true)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		step([]uint64{4})
	}()
	<-gate.entered

	fresh := freshServer()
	rejoined := make(chan error, 1)
	go func() { rejoined <- st.Rejoin(1, NewFaultStore(NewInProcess(fresh), 1), RejoinOptions{}) }()
	var err error
	select {
	case <-time.After(200 * time.Millisecond):
		close(gate.release)
		err = <-rejoined
	case err = <-rejoined:
		close(gate.release)
	}
	<-wrote
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	for _, p := range rejoinerParts(1, S, R) {
		if got, want := fresh.FingerprintPart(p, S), ref.FingerprintPart(p, S); got != want {
			t.Fatalf("rejoined server partition %d fingerprint %x != reference %x", p, got, want)
		}
	}
}

// TestRejoinMidResyncFailure is the attributed-failure leg: the rejoiner
// dies again mid-transfer. The rejoin surfaces an op-"resync" *TierError
// naming the server, re-marks it dead — no half-live state — and the tier
// keeps serving from the survivors.
func TestRejoinMidResyncFailure(t *testing.T) {
	st, faults, _, _, refStore := faultTier(3, TierOptions{
		Replicate: 2,
		Retries:   1,
		Backoff:   time.Millisecond,
		Jitter:    zeroJitter,
	})

	ids := make([]uint64, 30)
	for i := range ids {
		ids[i] = uint64(i)
	}
	rows, refRows := st.Fetch(ids), refStore.Fetch(ids)
	st.Write(ids, rows)
	refStore.Write(ids, refRows)

	faults[1].SetDown(true)
	st.Write(ids, rows) // condemns server 1
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}

	// The replacement connection fails every RPC: the transfer (or its
	// verify probe) dies mid-resync.
	rejoiner := NewFaultStore(NewInProcess(freshServer()), 1)
	rejoiner.SetDown(true)
	err := st.Rejoin(1, rejoiner, RejoinOptions{TransferOptions: TransferOptions{MaxRounds: 3, RoundBackoff: time.Millisecond}})
	if err == nil {
		t.Fatal("rejoin with a dead rejoiner reported success")
	}
	var te *TierError
	if !errors.As(err, &te) {
		t.Fatalf("rejoin error %T is not a *TierError: %v", err, err)
	}
	if te.Op != "resync" || te.Server != 1 {
		t.Fatalf("attributed error = %+v, want op resync on server 1", te)
	}
	// Cleanly dead again, not stuck half-live in resync.
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v after failed rejoin, want [1]", dead)
	}
	if down := st.DownServers(); len(down) != 1 || down[0] != 1 {
		t.Fatalf("DownServers() = %v after failed rejoin, want [1] (dead, not resyncing)", down)
	}
	// Survivors still serve — and a later, healthy rejoin succeeds.
	st.Fetch(ids[:5])
	if err := st.Rejoin(1, NewFaultStore(NewInProcess(freshServer()), 1), RejoinOptions{}); err != nil {
		t.Fatalf("healthy rejoin after a failed one: %v", err)
	}
}

// TestRejoinSameServer re-admits a server whose process outlived its
// outage (a dropped connection, not a crash), re-dialed through the same
// store: it kept the rows and live-write marks of its first membership,
// and every id was rewritten around it while it was down. The rejoin must
// reset it and certify within a few rounds — a mark kept from before the
// outage would hide a stale row from the transfer, and the rejoin would
// never verify.
func TestRejoinSameServer(t *testing.T) {
	st, faults, tier, ref, refStore := faultTier(3, TierOptions{
		Replicate: 2,
		Retries:   1,
		Backoff:   time.Millisecond,
		Jitter:    zeroJitter,
	})
	ids := make([]uint64, 40)
	rows := make([][]float32, len(ids))
	write := func(stamp float32) {
		for i := range ids {
			ids[i], rows[i] = uint64(i), []float32{stamp, 0, float32(i), 1}
		}
		st.Write(ids, rows)
		refStore.Write(ids, rows)
	}
	write(1) // marks server 1's rows
	faults[1].SetDown(true)
	write(2) // condemns server 1; its copies go stale
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}

	faults[1].SetDown(false)
	opts := RejoinOptions{TransferOptions: TransferOptions{MaxRounds: 3, RoundBackoff: time.Millisecond}}
	if err := st.Rejoin(1, faults[1], opts); err != nil {
		t.Fatalf("rejoin of the same server: %v", err)
	}
	for _, p := range rejoinerParts(1, 3, 2) {
		if got, want := tier[1].FingerprintPart(p, 3), ref.FingerprintPart(p, 3); got != want {
			t.Fatalf("rejoined server partition %d fingerprint %x != reference %x", p, got, want)
		}
	}
	if cert, err := Certify(st, ref); err != nil || len(cert.Differ) != 0 {
		t.Fatalf("tier certificate %+v, err %v after rejoin", cert, err)
	}
}

// TestRejoinSourceDeathMidResync kills the anti-entropy *source* instead:
// with the only other holder of the rejoiner's partitions gone, the rejoin
// must fail attributed (never hang), and the rejoiner goes cleanly back to
// dead.
func TestRejoinSourceDeathMidResync(t *testing.T) {
	st, faults, _, _, _ := faultTier(3, TierOptions{
		Replicate: 2,
		Retries:   1,
		Backoff:   time.Millisecond,
		Jitter:    zeroJitter,
	})
	ids := make([]uint64, 30)
	for i := range ids {
		ids[i] = uint64(i)
	}
	st.Write(ids, st.Fetch(ids))

	faults[1].SetDown(true)
	st.Write(ids, st.Fetch(ids))
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}

	if err := st.BeginRejoin(1, NewFaultStore(NewInProcess(freshServer()), 1)); err != nil {
		t.Fatal(err)
	}
	// Partition 1's only live holder is server 2 (server 1 is resyncing);
	// kill it before the transfer sources from it.
	faults[2].SetDown(true)
	err := st.CompleteRejoin(1, RejoinOptions{TransferOptions: TransferOptions{MaxRounds: 3, RoundBackoff: time.Millisecond}})
	var te *TierError
	if !errors.As(err, &te) || te.Op != "resync" {
		t.Fatalf("rejoin with a dead source returned %v, want an op-resync *TierError", err)
	}
	if down := st.DownServers(); len(down) != 2 {
		t.Fatalf("DownServers() = %v, want the rejoiner and the dead source", down)
	}
}

// TestRejoinVerifyOnly models the serving front end's read-only tier
// client: it re-admits a recovering server only once its partitions verify
// against the live holders — some read-write client owns the transfer —
// and a resyncing server never serves a read.
func TestRejoinVerifyOnly(t *testing.T) {
	const S, R = 3, 2
	servers := testTier(S)
	ref := embed.NewServer(3, 4, 11, 0.1)
	refStore := NewInProcess(ref)
	mkTier := func() (*ShardedStore, []*FaultStore) {
		faults := make([]*FaultStore, S)
		children := make([]Store, S)
		for i, srv := range servers {
			faults[i] = NewFaultStore(NewInProcess(srv), i)
			children[i] = faults[i]
		}
		return NewTier(children, TierOptions{
			Replicate: R, Retries: 1, Backoff: time.Millisecond, Jitter: zeroJitter,
		}), faults
	}
	rw, rwFaults := mkTier() // the trainer: owns writes and the transfer
	ro, roFaults := mkTier() // the front end: reads only, verify-only rejoin

	ids := make([]uint64, 30)
	for i := range ids {
		ids[i] = uint64(i)
	}
	rows := rw.Fetch(ids)
	refRows := refStore.Fetch(ids)
	for i := range rows {
		rows[i][0], refRows[i][0] = 7, 7
	}
	rw.Write(ids, rows)
	refStore.Write(ids, refRows)

	// The machine dies: both clients' wrappers cut at once.
	rwFaults[1].SetDown(true)
	roFaults[1].SetDown(true)
	rw.Write(ids, rows)                               // rw condemns server 1
	if _, err := ro.ReadFetch(ids, nil); err != nil { // ro fails over and condemns it too
		t.Fatalf("read-path failover: %v", err)
	}
	if dead := ro.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("read tier DeadServers() = %v, want [1]", dead)
	}

	// Respawn: a pristine recovering replacement, visible to both clients.
	fresh := freshServer()
	if err := ro.BeginRejoin(1, NewFaultStore(NewInProcess(fresh), 1)); err != nil {
		t.Fatal(err)
	}
	// While resyncing (pristine, unverified), reads must not route to it:
	// the values served must match the reference, which the fresh server
	// does not hold yet.
	got, err := ro.ReadFetch(ids, nil)
	if err != nil {
		t.Fatalf("read during resync: %v", err)
	}
	want := refStore.Fetch(ids)
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("read during resync served unverified data: id %d col %d = %v, want %v", ids[i], j, got[i][j], want[i][j])
			}
		}
	}

	// The verify-only client converges only after the read-write client's
	// transfer lands.
	var roRevived atomic.Int32
	ro.SubscribeRevived(func(s int) { roRevived.Add(1) })
	roDone := make(chan error, 1)
	go func() {
		roDone <- ro.CompleteRejoin(1, RejoinOptions{TransferOptions: TransferOptions{MaxRounds: 400, RoundBackoff: 2 * time.Millisecond}, VerifyOnly: true})
	}()

	if err := rw.Rejoin(1, NewFaultStore(NewInProcess(fresh), 1), RejoinOptions{}); err != nil {
		t.Fatalf("read-write rejoin: %v", err)
	}
	if err := <-roDone; err != nil {
		t.Fatalf("verify-only rejoin: %v", err)
	}
	if roRevived.Load() != 1 {
		t.Fatalf("read tier revival subscribers fired %d times, want 1", roRevived.Load())
	}
	if down := ro.DownServers(); len(down) != 0 {
		t.Fatalf("read tier DownServers() = %v after verify-only rejoin", down)
	}
	if fp, want := ro.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("read tier fingerprint %x != reference %x", fp, want)
	}
}

// TestMarkDeadConcurrentExactlyOnce races many condemnations of one
// server: OnFailover must fire exactly once, and the recorded cause must
// be the winning goroutine's error. Run under -race in CI.
func TestMarkDeadConcurrentExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	var fired []int
	var causes []error
	st, _, _, _, _ := faultTier(3, TierOptions{
		Replicate: 2,
		OnFailover: func(s int, cause error) {
			mu.Lock()
			fired = append(fired, s)
			causes = append(causes, cause)
			mu.Unlock()
		},
	})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st.markDeadIfGen(1, st.gen[1].Load(), fmt.Errorf("cause %d", i))
		}(i)
	}
	wg.Wait()

	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("OnFailover fired for %v, want exactly [1]", fired)
	}
	if causes[0] == nil {
		t.Fatal("OnFailover fired with a nil cause")
	}
	if got := st.deadCause(1); got != causes[0] {
		t.Fatalf("recorded cause %v != the first (callback) cause %v", got, causes[0])
	}
}

// TestReviverDialRetry pins the dial-retry behavior: a dead server whose
// address refuses connections is simply re-dialed on the next tick — never
// re-condemned for a failed dial — and rejoined once the dial lands.
func TestReviverDialRetry(t *testing.T) {
	st, faults, _, ref, refStore := faultTier(3, TierOptions{
		Replicate: 2,
		Retries:   1,
		Backoff:   time.Millisecond,
		Jitter:    zeroJitter,
	})
	ids := make([]uint64, 30)
	for i := range ids {
		ids[i] = uint64(i)
	}
	st.Write(ids, st.Fetch(ids))
	refStore.Write(ids, refStore.Fetch(ids))

	faults[1].SetDown(true)
	st.Write(ids, st.Fetch(ids))
	refStore.Write(ids, refStore.Fetch(ids))
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}

	fresh := freshServer()
	var dials atomic.Int32
	outcome := make(chan error, 8)
	rev := NewReviver(st, func(s int) (Store, error) {
		if s != 1 {
			t.Errorf("reviver dialed server %d, only 1 is dead", s)
		}
		if dials.Add(1) <= 3 {
			return nil, errors.New("connection refused") // still rebooting
		}
		return NewInProcess(fresh), nil
	}, RejoinOptions{}, func(s int, err error) { outcome <- err })
	defer rev.Stop()

	select {
	case err := <-outcome:
		if err != nil {
			t.Fatalf("rejoin through the reviver: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reviver never completed a rejoin")
	}
	if n := dials.Load(); n < 4 {
		t.Fatalf("reviver dialed %d times, want >= 4 (three refused attempts retried)", n)
	}
	if down := st.DownServers(); len(down) != 0 {
		t.Fatalf("DownServers() = %v after reviver rejoin", down)
	}
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("tier fingerprint %x != reference %x after reviver rejoin", fp, want)
	}
}

// TestDefaultJitterBounds pins the full-jitter envelope: the slept backoff
// is always within [d/2, d].
func TestDefaultJitterBounds(t *testing.T) {
	for _, d := range []time.Duration{
		time.Nanosecond, 2 * time.Nanosecond, time.Millisecond, 640 * time.Millisecond,
	} {
		for i := 0; i < 200; i++ {
			if j := defaultJitter(d); j < d/2 || j > d {
				t.Fatalf("defaultJitter(%v) = %v outside [%v, %v]", d, j, d/2, d)
			}
		}
	}
}

// TestJitterInjected proves the jitter source is injectable (the fake-clock
// determinism hook): the tier's retry path routes every backoff through it.
func TestJitterInjected(t *testing.T) {
	var calls atomic.Int32
	st, faults, _, _, _ := faultTier(3, TierOptions{
		Replicate: 2,
		Retries:   2,
		Backoff:   time.Microsecond,
		Jitter: func(d time.Duration) time.Duration {
			calls.Add(1)
			return 0
		},
	})
	faults[0].SetDown(true)
	ids := make([]uint64, 20)
	for i := range ids {
		ids[i] = uint64(i)
	}
	st.Fetch(ids) // retries against the dead server sleep through the jitter
	if calls.Load() == 0 {
		t.Fatal("injected jitter source never consulted on the retry path")
	}
}

// TestRejoinTCP is the real-socket leg: a tier over TCP links loses a
// server (its process-equivalent serve loop shuts down), a fresh recovery-
// mode server starts, a new link rejoins it, and the tier certifies.
func TestRejoinTCP(t *testing.T) {
	const S, R = 3, 2
	servers := testTier(S)
	ref := embed.NewServer(3, 4, 11, 0.1)
	refStore := NewInProcess(ref)

	addrs := make([]string, S)
	joins := make([]func(), S)
	links := make([]*TCPLink, S)
	children := make([]Store, S)
	for i, srv := range servers {
		addrs[i], joins[i] = startEmbedServer(t, srv)
		link, err := DialTCPLink(addrs[i], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = link
		children[i] = link
	}
	st := NewTier(children, TierOptions{
		Replicate: R, Retries: 2, Backoff: time.Millisecond, Jitter: zeroJitter,
	})

	stamp := float32(0)
	step := func(ids []uint64) {
		t.Helper()
		stamp++
		rows, refRows := st.Fetch(ids), refStore.Fetch(ids)
		for i := range rows {
			rows[i][0], refRows[i][0] = stamp, stamp
		}
		st.Write(ids, rows)
		refStore.Write(ids, refRows)
	}
	wide := make([]uint64, 36)
	for i := range wide {
		wide[i] = uint64(i)
	}
	step(wide)

	// Kill server 1: stop its serve loop (the in-test stand-in for a
	// process kill) and let the tier condemn the broken link.
	links[1].Shutdown()
	joins[1]()
	step(wide[:20])
	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}

	// Respawn on a fresh listener, rejoin over a new link.
	fresh := freshServer()
	addr2, join2 := startEmbedServer(t, fresh)
	link2, err := DialTCPLink(addr2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Rejoin(1, link2, RejoinOptions{}); err != nil {
		t.Fatalf("tcp rejoin: %v", err)
	}
	step(wide[:28])

	// Per-partition certificates straight off the rejoiner's link.
	for _, p := range rejoinerParts(1, S, R) {
		res, err := link2.Control(&Ctl{Op: CtlFingerprintPartIn, Part: p, Of: S})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.N, ref.FingerprintPart(p, S); got != want {
			t.Fatalf("rejoined tcp server partition %d fingerprint %x != reference %x", p, got, want)
		}
	}
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("tier fingerprint %x != reference %x after tcp rejoin", fp, want)
	}
	step(wide)
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("tier fingerprint %x != reference %x after the rejoin's writes", fp, want)
	}

	st.Shutdown() // shuts down the survivors and the rejoined fresh server
	join2()
	joins[0]()
	joins[2]()
	for _, l := range links {
		l.Close()
	}
	link2.Close()
}
