package transport

import (
	"fmt"
	"time"
)

// Tier-client half of live resharding: installing routing tables (with the
// data-plane barrier and spare-server admission that implies), the lazy
// adopt-and-retry healing of stale-routed ops, and the coordinator
// primitives internal/reshard drives the migration with. The coordinator
// algorithm itself — which partitions move when, when the tier settles —
// lives in internal/reshard; this file is only the mechanism.

// staleRetryLimit bounds how many times one data op will adopt a routing
// table and reissue before the tier declares it lost. Every legitimate
// reshard heals an op in one or two adoptions; hitting the limit means the
// cluster cannot converge on an epoch (a partitioned coordinator, a server
// flapping between tables) and retrying forever would hang training
// silently.
const staleRetryLimit = 256

// InstallRouting installs rt as this client's routing table, monotonically
// by epoch (false: rt is not newer than the installed table). The install
// is a barrier against the data plane: it waits out every in-flight
// Fetch/Write/ReadFetch/Fingerprint/Certify, so when it returns no op
// still routes by the predecessor. Absent spare servers the table
// references are admitted live — connected through TierOptions.Dial when
// their slot has no store yet; a spare that cannot be connected is marked
// dead (attributed, OnFailover fired) and the ring routes around it.
// Routing subscribers fire after the install, outside every lock.
func (t *ShardedStore) InstallRouting(rt *RoutingTable) bool {
	if err := rt.validate(); err != nil {
		panic(err.Error())
	}
	if rt.MaxServer() > t.capacity {
		panic(fmt.Sprintf("transport: routing table over %d servers installed on a tier with capacity %d", rt.MaxServer(), t.capacity))
	}
	t.installMu.Lock()
	cur := t.routing.Load()
	if rt.Epoch <= cur.Epoch {
		t.installMu.Unlock()
		return false
	}
	// Admission failures are collected and fired after the locks drop —
	// OnFailover may call back into the store.
	var failed []int
	var causes []error
	for s := 0; s < rt.MaxServer(); s++ {
		if t.state[s].Load() != srvAbsent {
			continue
		}
		if err := t.admit(s); err != nil {
			t.stateMu.Lock()
			t.state[s].Store(srvDead)
			t.causes[s] = err
			t.stateMu.Unlock()
			failed = append(failed, s)
			causes = append(causes, err)
		}
	}
	t.reshardParts.Add(movedDelta(cur, rt))
	t.routing.Store(rt)
	t.installMu.Unlock()
	if t.onFailover != nil {
		for i, s := range failed {
			t.onFailover(s, causes[i])
		}
	}
	t.routeMu.Lock()
	subs := append([]func(epoch uint64){}, t.routeSubs...)
	t.routeMu.Unlock()
	for _, fn := range subs {
		fn(rt.Epoch)
	}
	return true
}

// admit brings absent server s live: its slot's store if one was pre-set
// (a spare child supplied at construction), else a fresh connection through
// the dialer. The caller owns publishing any failure.
func (t *ShardedStore) admit(s int) error {
	if t.child(s) == nil {
		if t.dialFn == nil {
			return fmt.Errorf("transport: routing references absent server %d with no connection and no dialer", s)
		}
		st, err := t.dialFn(s)
		if err != nil {
			return fmt.Errorf("transport: dial spare server %d: %w", s, err)
		}
		if st == nil {
			return fmt.Errorf("transport: dialer returned no store for spare server %d", s)
		}
		l, err := asLink(s, st)
		if err != nil {
			return err
		}
		if st.Dim() != t.dim {
			return fmt.Errorf("transport: spare server %d serves dim %d, tier serves %d", s, st.Dim(), t.dim)
		}
		t.slots[s].Store(&serverSlot{link: l})
	}
	t.stateMu.Lock()
	t.gen[s].Add(1)
	t.state[s].Store(srvLive)
	t.causes[s] = nil
	t.readFails[s].Store(0)
	t.stateMu.Unlock()
	return nil
}

// movedCount counts the partitions whose reads have cut over under rt.
func movedCount(rt *RoutingTable) int64 {
	if rt.Settled() {
		return 0
	}
	var n int64
	for _, st := range rt.State {
		if st == PartMoved {
			n++
		}
	}
	return n
}

// movedDelta is the ReshardParts progress increment of installing rt over
// cur: newly cut-over partitions mid-reshard, the remainder at the
// completing settle (every partition of the new space finished), zero for
// an abort back to the old width.
func movedDelta(cur, rt *RoutingTable) int64 {
	if !rt.Settled() {
		return movedCount(rt) - movedCount(cur)
	}
	if cur.Settled() {
		return 0
	}
	if rt.NewS == cur.NewS {
		return int64(cur.NewS) - movedCount(cur)
	}
	return 0
}

// SubscribeRouting registers fn to be called (outside the store's locks)
// after every routing install, with the installed epoch. The serving front
// end uses this to flush reads cached under the predecessor's ownership.
func (t *ShardedStore) SubscribeRouting(fn func(epoch uint64)) {
	t.routeMu.Lock()
	t.routeSubs = append(t.routeSubs, fn)
	t.routeMu.Unlock()
}

// adoptRouting heals one stale-routing rejection, in whichever direction
// the staleness runs. A server ahead of us carries its installed table in
// the rejection: install it and re-route. A server *behind* us (it missed
// the coordinator's push — freshly rejoined, or its push RPC was lost) is
// taught our table. A server at our epoch rejected only because this link
// never announced it (a fresh connection): announce. A server ahead whose
// table didn't decode leaves nothing to adopt — wait a beat for the
// coordinator's push to land. The caller retries the op after every case;
// staleRetryLimit bounds the loop.
func (t *ShardedStore) adoptRouting(se *StaleRoutingError) {
	if se.Table != nil && se.Table.Epoch > t.routing.Load().Epoch {
		t.InstallRouting(se.Table)
		return
	}
	cur := t.routing.Load()
	if se.Epoch > cur.Epoch {
		time.Sleep(time.Millisecond)
		return
	}
	l, _, err := t.link(se.Server)
	switch {
	case err != nil:
		// No connection to teach (an unattributed fence); the reissue routes
		// afresh.
	case se.Epoch < cur.Epoch:
		_, _ = l.Control(&Ctl{Op: CtlInstallRouting, Routing: cur})
	default:
		_, _ = l.Control(&Ctl{Op: CtlAnnounceEpoch, Epoch: cur.Epoch})
	}
}

// ---- Coordinator primitives (internal/reshard drives these) ----

// LiveServer reports whether slot s currently serves (live, not dead,
// resyncing, or absent).
func (t *ShardedStore) LiveServer(s int) bool {
	return s >= 0 && s < t.capacity && t.state[s].Load() == srvLive
}

// EnsureServer brings spare slot s live ahead of a grow: a no-op when s
// already serves, an attributed error when s is dead or cannot be
// connected (the coordinator retries — a still-booting spare process is
// not condemned). Admitting an unrouted spare is invisible to the data
// plane, so no barrier is needed; the install lock only serializes
// admission against a concurrent routing install.
func (t *ShardedStore) EnsureServer(s int) error {
	if s < 0 || s >= t.capacity {
		return fmt.Errorf("transport: server %d outside tier capacity %d", s, t.capacity)
	}
	t.installMu.Lock()
	defer t.installMu.Unlock()
	switch t.state[s].Load() {
	case srvLive, srvResync:
		return nil
	case srvDead:
		return fmt.Errorf("transport: reshard target server %d is dead: %w", s, t.deadCause(s))
	}
	return t.admit(s)
}

// PushRouting distributes rt to every reachable server's epoch fence, then
// installs it locally. Order matters: servers must fence by the new epoch
// before this client routes by it, or the table's dual-write guarantees
// hold only probabilistically. A server whose push fails is condemned
// (fenced by generation) and the migration proceeds on the survivors — the
// per-partition verify decides whether that loss is fatal.
func (t *ShardedStore) PushRouting(rt *RoutingTable) error {
	if err := rt.validate(); err != nil {
		return err
	}
	if rt.MaxServer() > t.capacity {
		return fmt.Errorf("transport: routing table over %d servers pushed to a tier with capacity %d", rt.MaxServer(), t.capacity)
	}
	cur := t.routing.Load()
	if rt.Epoch <= cur.Epoch {
		return fmt.Errorf("transport: routing push at epoch %d not above installed epoch %d", rt.Epoch, cur.Epoch)
	}
	max := rt.MaxServer()
	if m := cur.MaxServer(); m > max {
		max = m
	}
	for s := 0; s < max; s++ {
		if st := t.state[s].Load(); st == srvDead || st == srvAbsent {
			continue
		}
		t.attempt(s, 1, func(l Link) error {
			if _, err := l.Control(&Ctl{Op: CtlInstallRouting, Routing: rt}); err != nil {
				return fmt.Errorf("transport: routing push to server %d: %w", s, err)
			}
			return nil
		})
	}
	t.InstallRouting(rt)
	return nil
}

// BeginRecoveryOn resets server s as a migration target: it clears the
// server's live-write marks (embed.Server.BeginRecovery), so its recovery
// writes skip only rows the live dual writes mark from here on. A server
// whose reset fails is condemned (fenced by generation): streamed to with
// its old marks, it could skip rows it must take and never verify.
func (t *ShardedStore) BeginRecoveryOn(s int) error {
	l, g, err := t.link(s)
	if err != nil {
		return err
	}
	if _, err = l.Control(&Ctl{Op: CtlBeginRecovery}); err != nil {
		t.markDeadIfGen(s, g, err)
	}
	return err
}

// RetainOwnedOn asks server s to shed every row outside its
// replicate-deep replica set of an of-way split — the settle-time cleanup
// that restores the invariant that a server materializes only rows it can
// be asked for.
func (t *ShardedStore) RetainOwnedOn(s, self, of, replicate int) (n int, err error) {
	err = t.attempt(s, 1, func(l Link) error {
		res, err := l.Control(&Ctl{Op: CtlRetainOwned, Part: self, Of: of, Replicate: replicate})
		n = int(res.N)
		return err
	})
	return n, err
}
