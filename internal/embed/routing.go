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
// and transfer primitives (fingerprints, exports, recovery writes) carry
// their partition space explicitly in their arguments and are deliberately
// unfenced: the coordinator drives them across epochs.

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
//
// The digest is a commutative sum, so it reads each shard's rows where they
// lie (Table.walk): no id list, no sort, no allocation, and a writer waits
// behind at most one slab chunk. At quiescence it equals the digest of the
// sorted materialized set; a certificate racing writers is not a snapshot,
// and the tier's retry loops re-take it.
func (s *Server) FingerprintPartIn(part, of, within, withinOf int) uint64 {
	checkPartIn("fingerprint", part, of, within, withinOf)
	var sum uint64
	for _, sh := range s.shards {
		sh.walk(func(id uint64, row []float32) {
			if inPart(id, part, of, within, withinOf) {
				sum += rowDigest(id, row)
			}
		})
	}
	return sum
}

// checkPartIn panics on a partition outside its split.
func checkPartIn(op string, part, of, within, withinOf int) {
	if of <= 0 || part < 0 || part >= of {
		panic(fmt.Sprintf("embed: %s partition %d of %d", op, part, of))
	}
	if withinOf > 1 && (within < 0 || within >= withinOf) {
		panic(fmt.Sprintf("embed: %s partition %d of %d", op, within, withinOf))
	}
}

// inPart reports whether id falls in partition part of an of-way split and
// in partition within of a withinOf-way one (see FingerprintPartIn).
func inPart(id uint64, part, of, within, withinOf int) bool {
	return (of <= 1 || core.OwnerOf(id, of) == part) &&
		(withinOf <= 1 || core.OwnerOf(id, withinOf) == within)
}

// exportRec is one exported row before the sort: its id, and where its
// copy starts in the export's flat row storage.
type exportRec struct {
	id  uint64
	off int
}

// ExportPartIn snapshots the materialized rows of partition part of an
// of-way split (core.OwnerOf(id, of) == part) intersected with partition
// within of a second, withinOf-way space (see FingerprintPartIn), returning
// parallel id/row slices, ascending by id. This is the anti-entropy source
// read: a surviving replica exports a partition (within 0 of 1) so a
// rejoining server can restore it, and resharding streams one
// (old-partition ∩ new-partition) slice so a migration never moves rows the
// destination doesn't own in the new space. The walk copies each exported
// row as it passes, so the export neither materializes rows nor aliases
// live storage, and only the exported ids are sorted (core.SortByID), each
// listed once;
// concurrent writes interleaving with the copy are repaired by the
// live-write mark on the receiving side (WriteRecovery) plus the
// fingerprint retry loop in the tier's resync driver.
func (s *Server) ExportPartIn(part, of, within, withinOf int) ([]uint64, [][]float32) {
	checkPartIn("export", part, of, within, withinOf)
	var (
		recs []exportRec
		flat []float32
		top  uint64
	)
	for _, sh := range s.shards {
		sh.walk(func(id uint64, row []float32) {
			if inPart(id, part, of, within, withinOf) {
				recs = append(recs, exportRec{id, len(flat)})
				flat = append(flat, row...)
				top |= id
			}
		})
	}
	recs, _ = core.SortByID(recs, nil, top, func(r *exportRec) uint64 { return r.id })
	ids := make([]uint64, 0, len(recs))
	rows := make([][]float32, 0, len(recs))
	for i, r := range recs {
		// A row removed and re-added behind a racing walk is visited twice;
		// the sort is stable, so the later, newer copy is the one kept.
		if i+1 < len(recs) && recs[i+1].id == r.id {
			continue
		}
		ids = append(ids, r.id)
		rows = append(rows, flat[r.off:r.off+s.Dim:r.off+s.Dim])
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
// rows in its replica set). Each shard is swept in place (Table.sweep).
func (s *Server) RetainOwned(self, of, replicate int) int {
	if of <= 0 || self < 0 || self >= of {
		panic(fmt.Sprintf("embed: retain for server %d of %d", self, of))
	}
	if replicate < 1 {
		replicate = 1
	}
	dropped := 0
	for _, sh := range s.shards {
		dropped += sh.sweep(func(id uint64) bool {
			return (self-core.OwnerOf(id, of)+of)%of >= replicate
		})
	}
	return dropped
}
