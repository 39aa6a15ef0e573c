package embed

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"bagpipe/internal/core"
)

// Stats counts server traffic, used by the experiments to account bytes,
// and the memory the server's tables hold.
type Stats struct {
	RowsFetched int64
	RowsWritten int64
	Fetches     int64 // fetch RPCs
	Writes      int64 // write RPCs
	Rows        int64 // materialized rows
	SlabBytes   int64 // slab chunks holding the rows, partly used ones included
	IndexBytes  int64 // id → slot tables, capacity included
}

// Server is Bagpipe's Embedding Server tier: embedding rows sharded across
// NumShards partitions by ID, serving batched fetch (prefetch) and
// write-back requests. In the disaggregated deployment each shard lives on
// its own machine; here shards are separate lock domains, and the transport
// layer (internal/transport) decides whether calls cross a real network.
type Server struct {
	Dim    int
	shards []*Table

	rowsFetched atomic.Int64
	rowsWritten atomic.Int64
	fetches     atomic.Int64
	writes      atomic.Int64

	// groupScratch pools the counting-sort work arrays of shardGroups so the
	// shard-grouped fetch/write paths stop reallocating them per batch.
	// Pooled (not a single field) because trainers issue concurrent RPCs.
	groupMu      sync.Mutex
	groupScratch []*core.GroupScratch

	// Routing-epoch fence (see routing.go). routeEpoch 0 accepts every
	// announced epoch, so pre-reshard deployments never block here.
	routeMu    sync.RWMutex
	routeEpoch uint64
	routeTable any
}

// getGroupScratch pops (or creates) a grouping scratch; putGroupScratch
// returns it once the pos/bounds views are no longer referenced.
func (s *Server) getGroupScratch() *core.GroupScratch {
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	if n := len(s.groupScratch); n > 0 {
		g := s.groupScratch[n-1]
		s.groupScratch[n-1] = nil
		s.groupScratch = s.groupScratch[:n-1]
		return g
	}
	return new(core.GroupScratch)
}

func (s *Server) putGroupScratch(g *core.GroupScratch) {
	s.groupMu.Lock()
	s.groupScratch = append(s.groupScratch, g)
	s.groupMu.Unlock()
}

// NewServer returns a server with numShards shards of width-dim rows.
func NewServer(numShards, dim int, seed uint64, initScale float32) *Server {
	if numShards <= 0 {
		panic(fmt.Sprintf("embed: non-positive shard count %d", numShards))
	}
	s := &Server{Dim: dim, shards: make([]*Table, numShards)}
	for i := range s.shards {
		// all shards share the seed: a row's initial value depends only on
		// its ID, not on the sharding, so resharding preserves state.
		s.shards[i] = NewTable(dim, seed, initScale)
	}
	return s
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// ShardOf returns the shard index owning id.
func (s *Server) ShardOf(id uint64) int { return int(id % uint64(len(s.shards))) }

// groupMinRows is the request size below which shard grouping costs more
// than it saves; smaller requests take the row-at-a-time path. With two
// callers fetching at once (dim 16, 4 shards), the grouped path's one lock
// per shard beat one lock per row by 15–55 % from 32 to 1 024 ids.
const groupMinRows = 64

// Fetch copies the rows for ids into a freshly allocated [len(ids)][dim]
// block and returns per-row slices into it. This is the prefetch RPC.
// Callers that manage their own row memory use FetchInto instead.
func (s *Server) Fetch(ids []uint64) [][]float32 {
	flat := make([]float32, len(ids)*s.Dim)
	out := make([][]float32, len(ids))
	for i := range out {
		out[i] = flat[i*s.Dim : (i+1)*s.Dim]
	}
	s.FetchInto(ids, out)
	return out
}

// FetchInto copies the rows for ids into the caller-provided dsts (one
// width-Dim slice per id) — the allocation-free form of Fetch that lets
// transports serve fetches out of the pooled row arena. Requests are
// grouped by shard — one batched call per shard instead of one lock
// acquisition per row — and the shards serve their slices one after
// another: a goroutine per shard cost more than it saved at every request
// size the engine sends, and allocated 10 objects per call instead of 1.
func (s *Server) FetchInto(ids []uint64, dsts [][]float32) {
	if len(ids) != len(dsts) {
		panic(fmt.Sprintf("embed: FetchInto %d ids, %d dsts", len(ids), len(dsts)))
	}
	if len(s.shards) == 1 || len(ids) < groupMinRows {
		for i, id := range ids {
			s.shards[s.ShardOf(id)].Get(id, dsts[i])
		}
	} else {
		g := s.getGroupScratch()
		pos, bounds := g.GroupByOwner(ids, len(s.shards))
		// Each shard's run of pos is dead after its GetMany, which
		// reorders it.
		for sh, t := range s.shards {
			if bounds[sh] != bounds[sh+1] {
				t.GetMany(ids, pos[bounds[sh]:bounds[sh+1]], dsts)
			}
		}
		s.putGroupScratch(g)
	}
	s.rowsFetched.Add(int64(len(ids)))
	s.fetches.Add(1)
}

// Write writes back updated rows (trainer evictions / background sync),
// shard-grouped like Fetch, and marks each row live-written (see
// WriteRecovery).
func (s *Server) Write(ids []uint64, rows [][]float32) { s.write(ids, rows, false) }

// write is the shared shard-grouped row store underlying Write and
// WriteRecovery; it counts the rows it stored (Table.store) and the call.
func (s *Server) write(ids []uint64, rows [][]float32, recovery bool) {
	if len(ids) != len(rows) {
		panic(fmt.Sprintf("embed: write of %d ids, %d rows", len(ids), len(rows)))
	}
	stored := 0
	if len(s.shards) == 1 || len(ids) < groupMinRows {
		for i, id := range ids {
			if s.shards[s.ShardOf(id)].set(id, rows[i], recovery) {
				stored++
			}
		}
	} else {
		g := s.getGroupScratch()
		pos, bounds := g.GroupByOwner(ids, len(s.shards))
		for sh, t := range s.shards {
			if bounds[sh] != bounds[sh+1] {
				stored += t.SetMany(ids, pos[bounds[sh]:bounds[sh+1]], rows, recovery)
			}
		}
		s.putGroupScratch(g)
	}
	s.rowsWritten.Add(int64(stored))
	s.writes.Add(1)
}

// WriteRecovery applies a bulk anti-entropy transfer: rows copied from a
// surviving replica's (possibly slightly stale) snapshot. A row marked by a
// live Write is skipped, and a stored row stays unmarked, so a later
// transfer round may still repair it.
//
// The rule is safe because a marked row is current: the mark means a live
// write of the row reached this server, and the server has been in the
// row's write set ever since, so every later write of it arrived too.
// Three facts keep a mark from outliving that membership.
//
//   - A tier client resets (BeginRecovery) a rejoin target when it stops
//     writing around it: at its install barrier, once every write it made
//     while the server was down has landed on the survivors and before any
//     later one is forwarded. So a re-dialed server that outlived its
//     outage keeps no mark from before it, and a new server starts clear.
//   - A server that loses a partition sheds its rows (RetainOwned), and a
//     slot a shed row frees starts unmarked when it is reused.
//   - reshard.Run resets (BeginRecovery) each live target before its first
//     dual epoch, which clears the marks a retired spare kept from its last
//     membership. Run skips servers that are not live and the tier refuses
//     a rejoin that starts mid-reshard, so no resyncing server's marks are
//     cleared, and a target whose reset fails is condemned, not streamed
//     to unreset.
//
// A row the live stream never touched is unmarked and takes the snapshot's
// value, which the transfer's digest rounds then verify.
func (s *Server) WriteRecovery(ids []uint64, rows [][]float32) { s.write(ids, rows, true) }

// BeginRecovery clears every live-write mark, readying the server to take
// recovery writes as a rejoin or reshard target.
func (s *Server) BeginRecovery() {
	for _, sh := range s.shards {
		sh.clearMarks()
	}
}

// Get reads one row (convenience for tests and the reference trainer).
func (s *Server) Get(id uint64) []float32 {
	row := make([]float32, s.Dim)
	s.shards[s.ShardOf(id)].Get(id, row)
	return row
}

// Stats returns a snapshot of traffic counters and table footprints.
func (s *Server) Stats() Stats {
	st := Stats{
		RowsFetched: s.rowsFetched.Load(),
		RowsWritten: s.rowsWritten.Load(),
		Fetches:     s.fetches.Load(),
		Writes:      s.writes.Load(),
	}
	for _, sh := range s.shards {
		rows, slab, index := sh.footprint()
		st.Rows += int64(rows)
		st.SlabBytes += int64(slab)
		st.IndexBytes += int64(index)
	}
	return st
}

// NumMaterialized returns the total number of touched rows across shards.
func (s *Server) NumMaterialized() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.NumMaterialized()
	}
	return n
}

// MaterializedIDs returns the sorted ids of every materialized row across
// all shards, exactly so at quiescence (a walk racing writers is not a
// snapshot, see Table.walk). A caller that needs only their number uses
// NumMaterialized.
func (s *Server) MaterializedIDs() []uint64 {
	ids := make([]uint64, 0, s.NumMaterialized())
	var top uint64
	for _, sh := range s.shards {
		sh.walk(func(id uint64, _ []float32) {
			ids = append(ids, id)
			top |= id
		})
	}
	ids, _ = core.SortByID(ids, nil, top, func(id *uint64) uint64 { return *id })
	return ids
}

// Fingerprint hashes the server's logical state: every materialized row is
// digested with FNV-1a over its id and row bits, and the per-row digests
// are combined with a wrapping sum. Two servers with equal fingerprints are
// bit-identical with overwhelming probability; the fuzz harness uses it as
// a cheap differential check before falling back to Diff for diagnostics.
//
// The commutative combine makes the fingerprint independent of sharding
// *and* of tier splitting: the S servers of a tier hold disjoint
// materialized sets, so their fingerprints sum (wrapping) to the
// fingerprint of the merged state. transport.ShardedStore relies on this to
// certify an S-server tier against an S=1 reference from S cheap remote
// fingerprints, without moving rows.
func (s *Server) Fingerprint() uint64 { return s.FingerprintPart(0, 1) }

// FingerprintPart is the partition-scoped form of Fingerprint: it digests
// only the materialized rows belonging to partition part of an of-way split
// (core.OwnerOf(id, of) == part), and of=1 degenerates to the whole server.
// A replicated tier needs this scoping because a server holds copies of its
// ring neighbors' partitions: summing whole-server fingerprints would count
// every replicated row R times, while summing one FingerprintPart(p, S) per
// partition — taken from any live holder of p — still equals the merged
// state's certificate.
func (s *Server) FingerprintPart(part, of int) uint64 {
	return s.FingerprintPartIn(part, of, 0, 1)
}

// rowDigest is the FNV-1a hash of one (id, row) pair, the unit Fingerprint
// sums.
func rowDigest(id uint64, row []float32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(id)
	for _, x := range row {
		mix(uint64(math.Float32bits(x)))
	}
	return h
}

// MergeTier merges the state of an S-server embedding tier into one logical
// server comparable against an S=1 reference: the in-memory reference the
// tests hold transport.Certify to (every engine's sharded run must land the
// bits of the unsharded baseline).
// Server s of a tier addressed through transport.ShardedStore may only hold
// materialized rows it owns (id % S == s); a row materialized on the wrong
// server means the sharding map was violated, and is reported rather than
// silently merged. All servers must have been built with the same seed, so
// untouched rows are the identical deterministic function of id on every
// server — the property that makes tier splitting well-defined at all.
func MergeTier(tier []*Server) (*Server, error) {
	return MergeTierReplicated(tier, 1, nil)
}

// MergeTierReplicated is MergeTier for a tier running replication factor
// replicate, with dead[s] marking servers whose state is unavailable (lost
// mid-run); tier[s] may be nil only when dead[s]. A live server s may
// materialize a row only when it sits in the row's replica set — the owner
// plus the next replicate−1 servers on the core.OwnerOf ring. The merged
// value of each row comes from the first live server of its replica set in
// ring order (the same server a failed-over read routes to), and every
// other live replica holding state must agree bit-for-bit: replicated
// writes go to all live replicas, and untouched rows are deterministic
// functions of (seed, id), so any divergence means a write was lost and is
// reported rather than silently merged away.
func MergeTierReplicated(tier []*Server, replicate int, dead []bool) (*Server, error) {
	S := len(tier)
	if S == 0 {
		return nil, fmt.Errorf("embed: merge of an empty tier")
	}
	if replicate < 1 || replicate > S {
		return nil, fmt.Errorf("embed: replication factor %d outside [1, %d]", replicate, S)
	}
	if dead == nil {
		dead = make([]bool, S)
	} else if len(dead) != S {
		return nil, fmt.Errorf("embed: dead set lists %d servers for a %d-server tier", len(dead), S)
	}
	lead := -1
	for s := range tier {
		if dead[s] {
			continue
		}
		if tier[s] == nil {
			return nil, fmt.Errorf("embed: live tier server %d has no state", s)
		}
		if lead < 0 {
			lead = s
		}
	}
	if lead < 0 {
		return nil, fmt.Errorf("embed: every server of the %d-server tier is dead", S)
	}
	first := tier[lead]
	if S == 1 {
		return first, nil
	}
	merged := &Server{Dim: first.Dim, shards: make([]*Table, len(first.shards))}
	for i, sh := range first.shards {
		merged.shards[i] = NewTable(sh.Dim, sh.Seed, sh.InitScale)
	}
	row := make([]float32, first.Dim)
	other := make([]float32, first.Dim)
	for s, srv := range tier {
		if dead[s] {
			continue
		}
		if srv.Dim != first.Dim {
			return nil, fmt.Errorf("embed: tier server %d has dim %d, server %d has dim %d", s, srv.Dim, lead, first.Dim)
		}
		for _, id := range srv.MaterializedIDs() {
			owner := core.OwnerOf(id, S)
			if delta := (s - owner + S) % S; delta >= replicate {
				return nil, fmt.Errorf("embed: tier server %d materialized id %d owned by server %d, outside its %d-replica set (sharding map violated)",
					s, id, owner, replicate)
			}
			primary := -1
			for k := 0; k < replicate; k++ {
				if r := (owner + k) % S; !dead[r] {
					primary = r
					break
				}
			}
			if s != primary {
				// The primary's pass merges (and cross-checks) this row; a row
				// materialized only on a non-primary replica was never written
				// there, so its value is the deterministic init the primary
				// serves anyway.
				continue
			}
			srv.shards[srv.ShardOf(id)].peek(id, row)
			for k := 0; k < replicate; k++ {
				r := (owner + k) % S
				if r == primary || dead[r] {
					continue
				}
				tier[r].shards[tier[r].ShardOf(id)].peek(id, other)
				for j := range row {
					if row[j] != other[j] {
						return nil, fmt.Errorf("embed: replicas %d and %d of id %d diverge (a replicated write was lost)",
							primary, r, id)
					}
				}
			}
			merged.shards[merged.ShardOf(id)].Set(id, row)
		}
	}
	return merged, nil
}

// Diff compares the logical state of two servers and returns the ids whose
// rows differ bit-for-bit, ascending. Shard counts may differ (state is
// sharding-independent). It is DiffRows over b's whole export, so the tests
// that compare a merged tier with a reference and transport.Certify, which
// compares a remote partition's export, apply one rule.
func Diff(a, b *Server) []uint64 {
	ids, rows := b.ExportPartIn(0, 1, 0, 1)
	differ, _ := a.DiffRows(0, 1, ids, rows)
	return differ
}

// DiffRows compares rows, parallel to strictly ascending ids (an export of
// partition part of an of-way split, as ExportPartIn returns it), with s's
// state in that partition. It returns the ids whose rows differ
// bit-for-bit, ascending, and how many ids it compared. Only the union of
// the materialized ids is inspected: a row materialized on one side only
// compares as its deterministic (seed, id) init, which is the other side's
// logical value when the seeds match. Nothing is materialized in s.
func (s *Server) DiffRows(part, of int, ids []uint64, rows [][]float32) (differ []uint64, compared int) {
	row := make([]float32, s.Dim)
	for i, id := range ids {
		s.shards[s.ShardOf(id)].peek(id, row)
		if !slices.Equal(row, rows[i]) {
			differ = append(differ, id)
		}
	}
	compared = len(ids)
	for _, sh := range s.shards {
		sh.walk(func(id uint64, mine []float32) {
			if _, listed := slices.BinarySearch(ids, id); listed || !inPart(id, part, of, 0, 1) {
				return
			}
			compared++
			sh.initInto(id, row)
			if !slices.Equal(mine, row) {
				differ = append(differ, id)
			}
		})
	}
	slices.Sort(differ)
	return differ, compared
}
