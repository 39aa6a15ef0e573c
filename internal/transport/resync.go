package transport

import (
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
// condemn the server), and flips the server to resync — from that moment
// every write to one of its partitions is applied to the surviving replicas
// *and* forwarded to the rejoiner, so no update is lost during recovery.
// CompleteRejoin then runs the anti-entropy transfer: partition by
// partition, a snapshot is exported from the partition's first live holder,
// streamed to the rejoiner (whose server-side recovery mode skips rows the
// forwarded live stream already refreshed), and certified by comparing
// embed.FingerprintPart digests between source and rejoiner. Only when every
// partition of the rejoiner's replica set verifies does markLive re-admit it
// to the write quorum, the read ring, and the serving read path. Any failure
// re-marks the rejoiner dead under its generation — there is no half-live
// state, and a resyncing server never serves a read.

// RejoinOptions tunes an anti-entropy rejoin. The zero value is sensible.
type RejoinOptions struct {
	// BatchRows is the number of rows per recovery-write RPC (default 512).
	BatchRows int
	// MaxRounds bounds the export→transfer→verify attempts per partition
	// (default 64). Concurrent writers from *other* tier clients can race a
	// round's digest check; each round repairs what the previous one
	// missed, and the loop converges once those writers either start
	// forwarding to the rejoiner or quiesce.
	MaxRounds int
	// RoundBackoff is the sleep between verify rounds (default 25ms).
	RoundBackoff time.Duration
	// VerifyOnly skips the transfer: the caller only waits for the
	// rejoiner's partitions to verify against the live holders before
	// re-admitting it. A read-only tier client (the serving front end's
	// store) uses this — some read-write client owns the actual transfer.
	VerifyOnly bool
}

func (o *RejoinOptions) defaults() {
	if o.BatchRows <= 0 {
		o.BatchRows = 512
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 64
	}
	if o.RoundBackoff <= 0 {
		o.RoundBackoff = 25 * time.Millisecond
	}
}

// BeginRejoin installs st as the new connection to dead server s and flips
// it to the resync state under a new generation. From return onward the
// write fan-out forwards s's partitions' writes to st; reads still avoid s
// until CompleteRejoin certifies it. st must be a Link serving the tier's
// row width.
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
		if err := l.TryInstallRouting(rt); err != nil {
			return fmt.Errorf("transport: rejoining server %d refused the routing table: %w", s, err)
		}
	}
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	if t.state[s].Load() != srvDead {
		return fmt.Errorf("transport: rejoin of server %d which is not dead", s)
	}
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
	opts.defaults()
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
		if err := t.resyncPartition(s, g, p, W, &opts); err != nil {
			return err
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

// resyncPartition brings partition p of rejoiner s (generation g) up to
// date: rounds of export-from-live-holder → recovery-write → digest-verify,
// each round under the partition's exclusive resync lock so this client's
// own writes cannot interleave between a snapshot and its application.
func (t *ShardedStore) resyncPartition(s int, g uint64, p, W int, opts *RejoinOptions) error {
	fail := func(cause error) error {
		t.markDeadIfGen(s, g, cause)
		return &TierError{Op: "resync", Partition: p, Server: s, Replicate: t.replicate, Cause: cause}
	}
	var lastCause error
	for round := 0; round < opts.MaxRounds; round++ {
		if t.gen[s].Load() != g || t.state[s].Load() != srvResync {
			// A concurrent failure (a forwarded write erroring, a racing
			// condemnation) already took s back to dead: surface it rather
			// than keep transferring into a condemned incarnation.
			cause := t.deadCause(s)
			if cause == nil {
				cause = fmt.Errorf("transport: server %d left resync during recovery of partition %d", s, p)
			}
			return fail(cause)
		}
		ok, err := t.resyncRound(s, p, W, opts)
		if err != nil {
			return fail(err)
		}
		if ok {
			return nil
		}
		lastCause = fmt.Errorf("transport: partition %d digest still diverges after round %d (concurrent writers)", p, round+1)
		time.Sleep(opts.RoundBackoff)
	}
	if lastCause == nil {
		lastCause = fmt.Errorf("transport: partition %d never verified", p)
	}
	return fail(lastCause)
}

// resyncRound runs one export→transfer→verify round for partition p of
// rejoiner s. Returns (true, nil) when the digests matched, (false, nil)
// when the round should be retried (divergence under concurrent writers, or
// a *source* failure — the next round routes to the next live holder), and
// a non-nil error only for rejoiner-side failures, which are terminal.
func (t *ShardedStore) resyncRound(s, p, W int, opts *RejoinOptions) (bool, error) {
	lk := &t.partLocks[p]
	lk.Lock()
	defer lk.Unlock()
	src := t.routeIn(p, W)
	if src < 0 {
		// Every verified holder of p is gone; the rejoin cannot be sourced
		// (and the tier at large is about to discover the same loss).
		return false, fmt.Errorf("transport: no live replica of partition %d to resync from", p)
	}
	srcLink, srcGen, err := t.link(src)
	if err != nil {
		return false, err
	}
	dst, _, err := t.link(s)
	if err != nil {
		return false, err
	}
	if !opts.VerifyOnly {
		ids, rows, err := srcLink.TryExportPartIn(p, W, 0, 1)
		if err != nil {
			// Source failure: condemn it (fenced) and retry the round — the
			// ring routes to the next live holder.
			t.markDeadIfGen(src, srcGen, err)
			return false, nil
		}
		for off := 0; off < len(ids); off += opts.BatchRows {
			end := min(off+opts.BatchRows, len(ids))
			if err := dst.TryWriteRecovery(ids[off:end], rows[off:end]); err != nil {
				return false, err
			}
			t.resyncRows.Add(int64(end - off))
		}
	}
	want, err := srcLink.TryFingerprintPartIn(p, W, 0, 1)
	if err != nil {
		t.markDeadIfGen(src, srcGen, err)
		return false, nil
	}
	got, err := dst.TryFingerprintPartIn(p, W, 0, 1)
	if err != nil {
		return false, err
	}
	return want == got, nil
}

// EndRecovery closes server s's server-side recovery window (the freshness
// filter of WriteRecovery). With several independent tier clients rejoining
// the same server, only the coordinator that knows *every* client has
// re-admitted it may call this — ending recovery while another client is
// still transferring would let a stale snapshot overwrite live rows.
func (t *ShardedStore) EndRecovery(s int) error {
	l, _, err := t.link(s)
	if err != nil {
		return err
	}
	return l.TryEndRecovery()
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
