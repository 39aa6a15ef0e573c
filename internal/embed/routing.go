package embed

import (
	"fmt"

	"bagpipe/internal/core"
)

// Routing-epoch fence (live tier resharding).
//
// While the tier resharding coordinator migrates partitions between
// servers, every tier client routes by a versioned routing table. The
// server is the fence that keeps stale routing from corrupting state: each
// data op arrives tagged with the epoch the client routed it by, and an op
// whose epoch differs from the server's installed one is rejected with a
// StaleRouting carrying the installed table, so the client can adopt it and
// re-route. Epoch 0 — a server that has never seen a reshard — accepts
// everything, keeping the pre-reshard deployments byte-for-byte on their
// old path.
//
// The fence covers only the routed data plane (fetch/write). Certificates
// and transfer primitives (fingerprints, checkpoints, exports, recovery
// writes) carry their partition space explicitly in their arguments and are
// deliberately unfenced: the coordinator drives them across epochs.

// StaleRouting rejects a data op announced under a routing epoch other than
// the server's installed one. Table is the installed routing table in
// whatever form the transport gave InstallRouting (the embed layer treats
// it as opaque bytes-or-struct; transports know their own encoding).
type StaleRouting struct {
	Epoch uint64
	Table any
}

func (e *StaleRouting) Error() string {
	return fmt.Sprintf("embed: stale routing epoch (server at epoch %d)", e.Epoch)
}

// InstallRouting installs a routing table, monotonically by epoch: an
// install at or below the current epoch is a no-op (false). Install is a
// barrier against the routed data plane: it waits out every in-flight
// routed op, so once it returns, every later routed op is fenced by the new
// epoch.
func (s *Server) InstallRouting(epoch uint64, table any) bool {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	if epoch <= s.routeEpoch {
		return false
	}
	s.routeEpoch = epoch
	s.routeTable = table
	return true
}

// RoutingEpoch returns the installed routing epoch (0 before any reshard).
func (s *Server) RoutingEpoch() uint64 {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return s.routeEpoch
}

// RoutedFetchInto is FetchInto behind the epoch fence: nil on success, a
// StaleRouting rejection when announced doesn't match the installed epoch.
// The op runs entirely under the fence's read lock, so it cannot interleave
// with an InstallRouting barrier.
func (s *Server) RoutedFetchInto(announced uint64, ids []uint64, dsts [][]float32) *StaleRouting {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	if s.routeEpoch != 0 && announced != s.routeEpoch {
		return &StaleRouting{Epoch: s.routeEpoch, Table: s.routeTable}
	}
	s.FetchInto(ids, dsts)
	return nil
}

// RoutedWrite is Write behind the epoch fence (see RoutedFetchInto).
func (s *Server) RoutedWrite(announced uint64, ids []uint64, rows [][]float32) *StaleRouting {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	if s.routeEpoch != 0 && announced != s.routeEpoch {
		return &StaleRouting{Epoch: s.routeEpoch, Table: s.routeTable}
	}
	s.Write(ids, rows)
	return nil
}

// FingerprintPartIn is FingerprintPart intersected with a second partition
// space: it digests the materialized rows in partition part of an of-way
// split that also fall in partition within of a withinOf-way split
// (withinOf <= 1 disables the second filter). Resharding verifies each
// migrated (old-partition, new-partition) slice with exactly this
// intersection — the destination holds its whole new partition, the source
// holds its whole old partition, and only the overlap is comparable.
func (s *Server) FingerprintPartIn(part, of, within, withinOf int) uint64 {
	if of <= 0 || part < 0 || part >= of {
		panic(fmt.Sprintf("embed: fingerprint partition %d of %d", part, of))
	}
	if withinOf > 1 && (within < 0 || within >= withinOf) {
		panic(fmt.Sprintf("embed: fingerprint partition %d of %d", within, withinOf))
	}
	row := make([]float32, s.Dim)
	var sum uint64
	for _, id := range s.MaterializedIDs() {
		if of > 1 && core.OwnerOf(id, of) != part {
			continue
		}
		if withinOf > 1 && core.OwnerOf(id, withinOf) != within {
			continue
		}
		s.shards[s.ShardOf(id)].peek(id, row)
		sum += rowDigest(id, row)
	}
	return sum
}

// ExportPartIn snapshots the materialized rows of partition part of an
// of-way split (core.OwnerOf(id, of) == part) intersected with partition
// within of a second, withinOf-way space (see FingerprintPartIn), returning
// parallel id/row slices. This is the anti-entropy source read: a surviving
// replica exports a partition (within 0 of 1) so a rejoining server can
// restore it, and resharding streams one (old-partition ∩ new-partition)
// slice so a migration never moves rows the destination doesn't own in the
// new space. Rows are copied (peek, not Get), so the export neither
// materializes rows nor aliases live storage; concurrent writes
// interleaving with the copy are repaired by the freshness protocol on the
// receiving side plus the fingerprint retry loop in the tier's resync
// driver.
func (s *Server) ExportPartIn(part, of, within, withinOf int) ([]uint64, [][]float32) {
	if of <= 0 || part < 0 || part >= of {
		panic(fmt.Sprintf("embed: export partition %d of %d", part, of))
	}
	if withinOf > 1 && (within < 0 || within >= withinOf) {
		panic(fmt.Sprintf("embed: export partition %d of %d", within, withinOf))
	}
	var ids []uint64
	for _, id := range s.MaterializedIDs() {
		if of > 1 && core.OwnerOf(id, of) != part {
			continue
		}
		if withinOf > 1 && core.OwnerOf(id, withinOf) != within {
			continue
		}
		ids = append(ids, id)
	}
	flat := make([]float32, len(ids)*s.Dim)
	rows := make([][]float32, len(ids))
	for i, id := range ids {
		rows[i] = flat[i*s.Dim : (i+1)*s.Dim]
		s.shards[s.ShardOf(id)].peek(id, rows[i])
	}
	return ids, rows
}

// RetainOwned drops every materialized row outside server self's
// replicate-deep replica set of an of-way split, returning how many rows
// went. A settled reshard calls this on each surviving server to shed the
// partitions that moved away — dropping a materialized row reverts it to
// its deterministic (seed, id) init, which is correct precisely because the
// dropped rows are ones the new routing never sends to this server, and it
// restores the MergeTierReplicated invariant (a server materializes only
// rows in its replica set).
func (s *Server) RetainOwned(self, of, replicate int) int {
	if of <= 0 || self < 0 || self >= of {
		panic(fmt.Sprintf("embed: retain for server %d of %d", self, of))
	}
	if replicate < 1 {
		replicate = 1
	}
	dropped := 0
	for _, id := range s.MaterializedIDs() {
		owner := core.OwnerOf(id, of)
		if delta := (self - owner + of) % of; delta >= replicate {
			if s.shards[s.ShardOf(id)].Remove(id) {
				dropped++
			}
		}
	}
	return dropped
}
