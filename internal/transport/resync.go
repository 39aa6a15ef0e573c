package transport

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// Server rejoin: anti-entropy recovery of a dead embedding server back into
// the live replicated tier, without stopping training or serving.
//
// The tier's per-server state machine is dead → resync → live. BeginRejoin
// installs a freshly dialed connection under a new *generation* (incarnation
// fence: outcomes of RPCs issued against the old connection can no longer
// condemn the server), and flips the server to resync at the routing-install
// barrier — from that moment every write to one of its partitions is applied
// to the surviving replicas *and* forwarded to the rejoiner, so no update is
// lost during recovery. CompleteRejoin then runs CopyPart, the partition
// transfer a reshard migrates with, over each partition of the rejoiner's
// replica set at unchanged width. Only when every one verifies does markLive
// re-admit it to the write quorum, the read ring, and the serving read path.
// Any failure re-marks the rejoiner dead under its generation — there is no
// half-live state, and a resyncing server never serves a read.

// TransferOptions tunes CopyPart's rounds, for a rejoin and a reshard alike.
// The zero value is sensible.
type TransferOptions struct {
	// BatchRows is the number of rows per recovery-write RPC (default 512).
	BatchRows int
	// MaxRounds bounds the export→transfer→verify rounds per partition
	// (default 64). Concurrent writers race a round's digest check; each
	// round repairs what the previous one missed, and the loop converges
	// once those writers either reach both sides or quiesce.
	MaxRounds int
	// RoundBackoff is the sleep between verify rounds (default 25ms).
	RoundBackoff time.Duration
}

// WithDefaults returns o with every unset field at its default.
func (o TransferOptions) WithDefaults() TransferOptions {
	if o.BatchRows <= 0 {
		o.BatchRows = 512
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 64
	}
	if o.RoundBackoff <= 0 {
		o.RoundBackoff = 25 * time.Millisecond
	}
	return o
}

// RejoinOptions tunes an anti-entropy rejoin. The zero value is sensible.
type RejoinOptions struct {
	TransferOptions
	// VerifyOnly skips the transfer: the caller only waits for the
	// rejoiner's partitions to verify against the live holders before
	// re-admitting it. A read-only tier client (the serving front end's
	// store) uses this — some read-write client owns the actual transfer.
	VerifyOnly bool
}

// ErrNoSource marks the unrecoverable transfer failure: every replica of
// the source partition is down, so its rows cannot be copied anywhere.
var ErrNoSource = errors.New("no live replica to copy from")

// BeginRejoin installs st as the new connection to dead server s and flips
// it to the resync state under a new generation. From return onward the
// write fan-out forwards s's partitions' writes to st; reads still avoid s
// until CompleteRejoin certifies it. st must be a Link serving the tier's
// row width. The server behind st may be a respawned process or the same
// one re-dialed: either way it is reset first (its live-write marks
// cleared, see embed.Server.WriteRecovery), and a server that refuses the
// reset stays dead, attributed by an op-"resync" *TierError.
//
// The reset and the flip happen under the routing-install barrier, as
// InstallRouting's table swap does: it waits out every in-flight data op,
// so no write that saw s dead — and so skipped it — can land on a replica
// after a transfer round has snapshotted it. Every op that can still race
// the transfer forwards to s.
//
// A rejoin that races a reshard is refused: mid-reshard the partition map
// is in motion, and re-admitting a server under ownership about to change
// would certify it against the wrong id sets. The Reviver simply retries
// next tick, after the tier settles. When the tier has resharded before
// (epoch > 0), the current table is installed on the fresh connection
// first — a rejoiner always lands in the *new* routing epoch, so a server
// that died under old ownership can never resurrect it.
func (t *ShardedStore) BeginRejoin(s int, st Store) error {
	rt := t.routing.Load()
	if !rt.Settled() {
		return fmt.Errorf("transport: rejoin of server %d deferred: tier is resharding (epoch %d)", s, rt.Epoch)
	}
	if s < 0 || s >= rt.NewS {
		return fmt.Errorf("transport: rejoin of server %d outside tier [0, %d)", s, rt.NewS)
	}
	if st == nil {
		return fmt.Errorf("transport: rejoin of server %d with no store", s)
	}
	l, err := asLink(s, st)
	if err != nil {
		return err
	}
	if st.Dim() != t.dim {
		return fmt.Errorf("transport: rejoining server %d serves dim %d, tier serves %d", s, st.Dim(), t.dim)
	}
	if rt.Epoch > 0 {
		if _, err := l.Control(&Ctl{Op: CtlInstallRouting, Routing: rt}); err != nil {
			return fmt.Errorf("transport: rejoining server %d refused the routing table: %w", s, err)
		}
	}
	t.installMu.Lock()
	defer t.installMu.Unlock()
	if cur := t.routing.Load(); cur != rt {
		return fmt.Errorf("transport: rejoin of server %d deferred: tier is resharding (epoch %d)", s, cur.Epoch)
	}
	// Only a rejoin, under installMu, moves a server out of dead, so s
	// stays dead across the reset below.
	if t.state[s].Load() != srvDead {
		return fmt.Errorf("transport: rejoin of server %d which is not dead", s)
	}
	// Reset s at the barrier: every write this client made while s was
	// dead has landed on the survivors, and every later one reaches s, so
	// no mark s kept from before its outage can hide a row it missed.
	if _, err := l.Control(&Ctl{Op: CtlBeginRecovery}); err != nil {
		return &TierError{Op: "resync", Partition: s, Server: s, Replicate: t.replicate, Cause: err}
	}
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	// Publication order matters for the incarnation fence: readers load gen
	// before slot, so slot must be new by the time gen is, and both must be
	// new by the time the resync state is visible.
	t.slots[s].Store(&serverSlot{link: l})
	t.gen[s].Add(1)
	t.state[s].Store(srvResync)
	return nil
}

// CompleteRejoin runs the anti-entropy transfer for resyncing server s and,
// once every partition of its replica set verifies digest-identical to its
// live holder, re-admits s to the live set. On any rejoiner-side failure —
// or on verify rounds exhausting without convergence — s is re-marked dead
// (fenced by its generation) and an attributed op-"resync" *TierError is
// returned as a value: the tier itself stays healthy, serving from the
// survivors exactly as before the attempt.
func (t *ShardedStore) CompleteRejoin(s int, opts RejoinOptions) error {
	t.rejoinMu.Lock()
	defer t.rejoinMu.Unlock()
	// Widths come from the settled routing table (BeginRejoin refused a
	// mid-reshard rejoin, so the width is stable for the whole transfer).
	W := t.routing.Load().Width()
	if s < 0 || s >= W || t.state[s].Load() != srvResync {
		return fmt.Errorf("transport: complete rejoin of server %d which is not resyncing", s)
	}
	g := t.gen[s].Load()
	// s holds every partition whose replica set contains s: partitions
	// s, s−1, …, s−R+1 on the ownership ring.
	for k := 0; k < t.replicate; k++ {
		p := ((s-k)%W + W) % W
		if _, _, err := t.CopyPart(s, p, W, 0, 1, opts.TransferOptions, opts.VerifyOnly); err != nil {
			t.markDeadIfGen(s, g, err)
			return &TierError{Op: "resync", Partition: p, Server: s, Replicate: t.replicate, Cause: err}
		}
	}
	if !t.markLive(s, g) {
		cause := t.deadCause(s)
		if cause == nil {
			cause = fmt.Errorf("transport: rejoin of server %d superseded before certification", s)
		}
		return &TierError{Op: "resync", Partition: s, Server: s, Replicate: t.replicate, Cause: cause}
	}
	return nil
}

// Rejoin is BeginRejoin + CompleteRejoin: the full dead → resync → live
// recovery of server s through the freshly dialed connection st.
func (t *ShardedStore) Rejoin(s int, st Store, opts RejoinOptions) error {
	if err := t.BeginRejoin(s, st); err != nil {
		return err
	}
	return t.CompleteRejoin(s, opts)
}

// CopyPart brings server dst's copy of the (part-of-of ∩ within-of-withinOf)
// intersection digest-identical to the first live holder of part's replica
// ring, in rounds: export from that holder, recovery-write to dst in
// BatchRows batches, then compare the two digests. A source failure condemns
// the source (fenced) and the next round rotates to the next live holder; a
// digest mismatch backs off and retries. verifyOnly skips the export and the
// writes: another client owns the transfer, and this one only waits for the
// digests to agree.
//
// The rounds take no lock. Every write that can still race them reaches dst
// too — forwarded to a rejoiner, dual-written to a reshard target — and
// marks its row there, so a stale snapshot never overwrites it (see
// embed.Server.WriteRecovery); a write that lands between the two digest
// probes makes them differ, and the next round repairs it.
//
// A dst-side failure condemns dst (fenced by its generation), and the loop
// stops once dst leaves the state it started in. CopyPart returns the rows
// and payload bytes written to dst — counted as ResyncRows for a resyncing
// dst, as ReshardRows/ReshardBytes for a live one — and an error wrapping
// ErrNoSource when part's whole ring is down.
func (t *ShardedStore) CopyPart(dst, part, of, within, withinOf int, opts TransferOptions, verifyOnly bool) (rows int, bytes int64, err error) {
	opts = opts.WithDefaults()
	dl, g, err := t.link(dst)
	if err != nil {
		return 0, 0, err
	}
	from := t.state[dst].Load()
	if from != srvLive && from != srvResync {
		return 0, 0, fmt.Errorf("transport: transfer target server %d is not serving", dst)
	}
	defer func() {
		if from == srvResync {
			t.resyncRows.Add(int64(rows))
		} else {
			t.reshardRows.Add(int64(rows))
			t.reshardBytes.Add(bytes)
		}
	}()
	for round := 0; round < opts.MaxRounds; round++ {
		if round > 0 {
			time.Sleep(opts.RoundBackoff)
		}
		if t.gen[dst].Load() != g || t.state[dst].Load() != from {
			cause := t.deadCause(dst)
			if cause == nil {
				cause = errors.New("superseded")
			}
			return rows, bytes, fmt.Errorf("transport: server %d left the transfer of partition %d: %w", dst, part, cause)
		}
		src := t.routeIn(part, of)
		if src < 0 {
			return rows, bytes, fmt.Errorf("transport: partition %d of %d: %w", part, of, ErrNoSource)
		}
		sl, sg, err := t.link(src)
		if err != nil {
			return rows, bytes, err
		}
		if !verifyOnly {
			ex, err := sl.Control(&Ctl{Op: CtlExportPartIn, Part: part, Of: of, Within: within, WithinOf: withinOf})
			if err != nil {
				t.markDeadIfGen(src, sg, err)
				continue
			}
			for off := 0; off < len(ex.IDs); off += opts.BatchRows {
				end := min(off+opts.BatchRows, len(ex.IDs))
				if _, err := dl.Control(&Ctl{Op: CtlWriteRecovery, IDs: ex.IDs[off:end], Rows: ex.Rows[off:end]}); err != nil {
					t.markDeadIfGen(dst, g, err)
					return rows, bytes, err
				}
				rows += end - off
				bytes += payloadBytes(end-off, t.dim)
			}
		}
		fp := &Ctl{Op: CtlFingerprintPartIn, Part: part, Of: of, Within: within, WithinOf: withinOf}
		want, err := sl.Control(fp)
		if err != nil {
			t.markDeadIfGen(src, sg, err)
			continue
		}
		got, err := dl.Control(fp)
		if err != nil {
			t.markDeadIfGen(dst, g, err)
			return rows, bytes, err
		}
		if want.N == got.N {
			return rows, bytes, nil
		}
	}
	return rows, bytes, fmt.Errorf("transport: partition (%d of %d ∩ %d of %d) on server %d never verified after %d rounds",
		part, of, within, withinOf, dst, opts.MaxRounds)
}

// Reviver watches the tier for dead servers and brings them back: it
// re-dials each dead server's address on a poll interval (a dial failure is
// simply retried next tick — a rebooting server is not re-condemned), and
// on a successful dial runs the full Rejoin. It is the tier-client-side
// half of the rejoin story; the respawned server process is the other.
type Reviver struct {
	t    *ShardedStore
	dial func(server int) (Store, error)
	opts RejoinOptions
	// onRejoined, if set, is told the outcome of every completed rejoin
	// attempt (nil error: the server is live again).
	onRejoined func(server int, err error)
	stop       chan struct{}
	done       chan struct{}
}

// ReviverInterval is the poll cadence for dead-server re-dials.
const ReviverInterval = 50 * time.Millisecond

// NewReviver starts a reviver over t. dial must return a fresh connection
// to the given server's (re-used) address, or an error to retry later.
func NewReviver(t *ShardedStore, dial func(server int) (Store, error), opts RejoinOptions, onRejoined func(server int, err error)) *Reviver {
	r := &Reviver{t: t, dial: dial, opts: opts, onRejoined: onRejoined,
		stop: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r
}

func (r *Reviver) loop() {
	defer close(r.done)
	tick := time.NewTicker(ReviverInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		for _, s := range r.t.DeadServers() {
			st, err := r.dial(s)
			if err != nil {
				continue // not up yet; retry next tick
			}
			err = r.t.Rejoin(s, st, r.opts)
			if err != nil {
				// The failed incarnation's connection is ours to clean up;
				// the tier already re-marked the server dead.
				if c, ok := st.(io.Closer); ok {
					c.Close()
				}
			}
			if r.onRejoined != nil {
				r.onRejoined(s, err)
			}
		}
	}
}

// Stop halts the reviver and waits for any in-flight rejoin to finish.
func (r *Reviver) Stop() {
	close(r.stop)
	<-r.done
}
