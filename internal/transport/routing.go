package transport

import (
	"errors"
	"fmt"
)

// Live tier resharding: versioned routing.
//
// The tier's ownership map — core.OwnerOf(id, S), id % S — is total and
// static as long as S is fixed. A live reshard S→S′ breaks that: for the
// duration of the migration two ownership spaces coexist (the old S-way
// split and the new S′-way split), and every tier client must agree, per
// partition, on which space currently serves reads and which rings receive
// writes. RoutingTable is that agreement, versioned by a monotonically
// increasing Epoch. The reshard coordinator is the only writer: it installs
// each successive table on every server (PushRouting) before acting on it,
// and servers fence the data path by epoch — a client whose announced epoch
// doesn't match the server's installed one is rejected with a
// StaleRoutingError carrying the current table, adopts it, and retries.
// Lazy, per-link self-healing: no global pause, no client registry.
//
// Partition states walk Pending → Dual → Moved in the *new* partition
// space:
//
//   - PartPending: the partition has not started migrating. Writes go to
//     its old-space owner ring only; reads route old.
//   - PartDual: the dual-write window is open. Writes fan to the old ring
//     *and* the new ring (new-ring members not already in the old ring);
//     reads still route old, so nothing is served from an unverified copy.
//   - PartMoved: the partition's streamed copy verified digest-identical.
//     Reads flip to the new ring; writes keep fanning to both rings so the
//     old space stays complete — which is what makes abort (fall back to a
//     settled old-width table) safe at any point before the final settle.
//
// The settled table (State == nil, OldS == NewS) ends the migration; only
// then do servers shed the partitions that moved away (RetainOwned).
type RoutingTable struct {
	// Epoch versions the table. 0 is the construction-time epoch: servers
	// that have never seen a reshard accept every announced epoch, so the
	// pre-reshard fast path pays nothing.
	Epoch uint64
	// OldS and NewS are the source and target tier widths. Equal (with a
	// nil State) in a settled table.
	OldS, NewS int
	// State is the per-partition migration state, indexed by *new-space*
	// partition. nil means settled.
	State []PartState
}

// PartState is one new-space partition's migration state.
type PartState uint8

const (
	// PartPending: not yet migrating; old ring carries everything.
	PartPending PartState = iota
	// PartDual: dual-write window open; reads still on the old ring.
	PartDual
	// PartMoved: verified and cut over; reads on the new ring, writes
	// still dual until the tier settles.
	PartMoved
)

// Settled reports whether the table describes a quiescent tier (no
// migration in flight).
func (rt *RoutingTable) Settled() bool { return rt.State == nil }

// Width returns the authoritative partition space: the tier width when
// settled, the *old* width mid-reshard — the old space receives every write
// until the settle, so certificates (fingerprints, Certify) taken
// mid-reshard are complete exactly there.
func (rt *RoutingTable) Width() int {
	if rt.Settled() {
		return rt.NewS
	}
	return rt.OldS
}

// MaxServer returns the number of server slots the table references:
// max(OldS, NewS).
func (rt *RoutingTable) MaxServer() int {
	if rt.OldS > rt.NewS {
		return rt.OldS
	}
	return rt.NewS
}

// A data op's pass groups its ids into buckets by the installed table once
// (see ShardedStore.scatter). A read bucket names the ring serving the id's
// reads: its old-space base q in [0, OldS), or OldS+p′ once its new-space
// partition p′ cut over — plain id % S when settled. A write bucket is the
// (old partition q, new partition p′) pair, numbered q·NewS+p′: the write
// lands on q's ring, and on p′'s ring too while p′ dual-writes.

// readKeys is the number of read buckets.
func (rt *RoutingTable) readKeys() int { return rt.OldS + rt.NewS }

// readKey returns id's read bucket.
func (rt *RoutingTable) readKey(id uint64) int {
	if rt.State != nil {
		if pn := int(id % uint64(rt.NewS)); rt.State[pn] == PartMoved {
			return rt.OldS + pn
		}
	}
	return int(id % uint64(rt.OldS))
}

// readRing returns read bucket k's replica ring (base, width).
func (rt *RoutingTable) readRing(k int) (base, width int) {
	if k < rt.OldS {
		return k, rt.OldS
	}
	return k - rt.OldS, rt.NewS
}

// writeKeys is the number of write buckets.
func (rt *RoutingTable) writeKeys() int { return rt.OldS * rt.NewS }

// writeKey returns id's write bucket.
func (rt *RoutingTable) writeKey(id uint64) int {
	return int(id%uint64(rt.OldS))*rt.NewS + int(id%uint64(rt.NewS))
}

// dualWrite reports whether writes to new-space partition pn also fan to
// its new ring: a reshard is in flight and pn's dual window is open.
func (rt *RoutingTable) dualWrite(pn int) bool {
	return rt.State != nil && rt.State[pn] != PartPending
}

// validate rejects structurally corrupt tables: a wire decode gone wrong,
// or a table a control request installs.
func (rt *RoutingTable) validate() error {
	if rt.OldS < 1 || rt.NewS < 1 {
		return fmt.Errorf("transport: routing table widths %d→%d", rt.OldS, rt.NewS)
	}
	if rt.State == nil {
		if rt.OldS != rt.NewS {
			return fmt.Errorf("transport: settled routing table with widths %d→%d", rt.OldS, rt.NewS)
		}
		return nil
	}
	if len(rt.State) != rt.NewS {
		return fmt.Errorf("transport: routing table states %d partitions of a %d-wide target", len(rt.State), rt.NewS)
	}
	for p, st := range rt.State {
		if st > PartMoved {
			return fmt.Errorf("transport: routing table partition %d in unknown state %d", p, st)
		}
	}
	return nil
}

// settledRouting is the table a quiescent width-S tier runs under.
func settledRouting(epoch uint64, width int) *RoutingTable {
	return &RoutingTable{Epoch: epoch, OldS: width, NewS: width}
}

// encodeRouting appends rt's wire form to b: epoch, widths, a settled flag,
// then the per-partition states.
func encodeRouting(b []byte, rt *RoutingTable) []byte {
	b = putU64(b, rt.Epoch)
	b = putU32(b, uint32(rt.OldS))
	b = putU32(b, uint32(rt.NewS))
	if rt.Settled() {
		return append(b, 1)
	}
	b = append(b, 0)
	for _, st := range rt.State {
		b = append(b, byte(st))
	}
	return b
}

// routing reads one table in encodeRouting form; the caller validates it.
func (r *wireReader) routing() *RoutingTable {
	rt := &RoutingTable{Epoch: r.u64(), OldS: int(r.u32()), NewS: int(r.u32())}
	if settled := r.u8(); r.err == nil && settled == 0 {
		// take trusts its length: the states must all be present.
		if rt.NewS < 0 || rt.NewS > len(r.b) {
			r.fail()
			return rt
		}
		rt.State = make([]PartState, rt.NewS)
		for i, v := range r.take(rt.NewS, 1) {
			rt.State[i] = PartState(v)
		}
	}
	return rt
}

// StaleRoutingError is a server's rejection of a data op announced under a
// routing epoch other than the server's installed one. It is a fence, not a
// failure: the client adopts the carried table (when newer), re-announces,
// and retries — it must never count toward retry budgets, dead-marking, or
// read-failure streaks.
type StaleRoutingError struct {
	// Server is the tier slot whose link rejected the op (-1 until the tier
	// client attributes it).
	Server int
	// Epoch is the rejecting server's installed epoch.
	Epoch uint64
	// Table is the rejecting server's installed table; nil when it could
	// not be decoded.
	Table *RoutingTable
}

func (e *StaleRoutingError) Error() string {
	return fmt.Sprintf("transport: stale routing epoch on server %d (server at epoch %d)", e.Server, e.Epoch)
}

// asStaleRouting extracts the routing fence from an error chain, nil when
// the error is a real failure.
func asStaleRouting(err error) *StaleRoutingError {
	if err == nil {
		return nil
	}
	var se *StaleRoutingError
	if errors.As(err, &se) {
		return se
	}
	return nil
}
