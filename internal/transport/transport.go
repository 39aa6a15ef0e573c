// Package transport is the system's wire layer: the trainer↔embedding-tier
// client (Store, the fetch/write data path plus tier operations, fanning
// out over S servers via ShardedStore) and the trainer↔trainer fabric
// (Mesh), each with three interchangeable
// implementations —
//
//   - in-process (NewInProcess, InprocMesh): direct calls, zero cost; the
//     fabric the functional tests run on (NewInProcess is a SimNet that
//     charges nothing);
//   - simulated (SimNet, SimMesh): a timing model charging per-call latency
//     and per-link serialization bandwidth, so experiments can sweep the
//     paper's EC2 topology (trainers on p3 GPU nodes, embedding servers on
//     separate c5 nodes) without a cluster;
//   - TCP (TCPLink/ServeEmbed, TCPMesh): real sockets speaking the
//     length-prefixed little-endian protocol in codec.go, for genuinely
//     distributed multi-process runs.
//
// Every server connection (SimNet, TCPLink, and the FaultStore test
// wrapper) is a Link: the Store face plus the error-returning ops the tier
// client retries, fails over, rejoins and reshards with.
//
// Two invariants hold across all implementations, and the conformance
// suite (conformance_test.go) pins them:
//
//   - a transport or mesh is a carrier, never a semantic layer: state
//     changes and message values are identical whichever implementation
//     moves them, so any engine/fabric combination must produce
//     bit-identical embedding-server state;
//   - mesh delivery may reorder but never corrupts or invents: every
//     accepted Send is eventually delivered exactly once or counted
//     dropped (drops can occur only after the destination endpoint
//     closed), and receivers must key — not sequence — their protocol
//     state.
//
// Traffic is accounted in payload bytes (8 per id + 4 per float) on every
// implementation, the accounting the paper's byte plots use.
package transport

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"bagpipe/internal/embed"
)

// idBytes is the wire size of one embedding ID (uint64).
const idBytes = 8

// Stats accounts the traffic a transport has carried.
type Stats struct {
	Fetches     int64 // fetch calls
	Writes      int64 // write calls
	RowsFetched int64
	RowsWritten int64
	// BytesFetched / BytesWritten count payload bytes: 8 per id plus
	// 4·dim per row, the accounting the paper's byte plots use.
	BytesFetched int64
	BytesWritten int64
	// SimulatedDelay is the total wall-clock time injected by a simulated
	// network (zero for in-process transports).
	SimulatedDelay time.Duration
}

// Add accumulates o into s field-wise. Every place the system folds traffic
// snapshots — per-trainer aggregation into train.Result, the sharded
// store's tier totals, per-server -stats accounting — goes through this one
// method, so a field added to Stats cannot be silently dropped from one of
// several hand-rolled summations.
func (s *Stats) Add(o Stats) {
	s.Fetches += o.Fetches
	s.Writes += o.Writes
	s.RowsFetched += o.RowsFetched
	s.RowsWritten += o.RowsWritten
	s.BytesFetched += o.BytesFetched
	s.BytesWritten += o.BytesWritten
	s.SimulatedDelay += o.SimulatedDelay
}

// Link is one embedding server's connection as the tier client drives it:
// the Store face plus the error-returning ops behind retry, failover,
// rejoin and reshard. Every tier child implements it — SimNet (the
// in-process fabric is a free SimNet), TCPLink, and the fault-injection
// wrapper — and a ShardedStore checks for it once, wherever a connection
// enters the tier. The Try forms mirror their Store counterparts exactly
// (same ownership rules, same accounting) but report failure instead of
// dying, so a replicated tier can retry, condemn the server, and fail over.
//
// Export and partition fingerprints take the intersection form only: the
// plain partition p of an of-way split is (p, of, 0, 1), exactly as
// embed.Server defines FingerprintPart.
type Link interface {
	Store
	TryFetch(ids []uint64) ([][]float32, error)
	TryWrite(ids []uint64, rows [][]float32) error
	TryCheckpoint() ([]byte, error)
	// TryBeginRecovery opens the server's recovery window (freshness
	// filter), so migration streams and live dual writes can interleave.
	TryBeginRecovery() error
	// TryWriteRecovery is a bulk recovery write that skips rows the live
	// stream already refreshed (see embed.Server.WriteRecovery).
	TryWriteRecovery(ids []uint64, rows [][]float32) error
	// TryEndRecovery closes the recovery window once the tier has
	// certified the rejoin.
	TryEndRecovery() error
	// TryInstallRouting installs rt on the server (monotonic by epoch) and
	// marks this link's announced epoch rt.Epoch.
	TryInstallRouting(rt *RoutingTable) error
	// TryAnnounceEpoch declares the epoch this link's future data ops are
	// routed by.
	TryAnnounceEpoch(epoch uint64) error
	// TryExportPartIn snapshots the rows in partition part of an of-way
	// split that also fall in partition within of a withinOf-way split
	// (withinOf <= 1 disables the second filter).
	TryExportPartIn(part, of, within, withinOf int) ([]uint64, [][]float32, error)
	// TryFingerprintPartIn is the digest of the same intersection.
	TryFingerprintPartIn(part, of, within, withinOf int) (uint64, error)
	// TryRetainOwned drops every row outside server self's replicate-deep
	// replica set of an of-way split, returning how many went.
	TryRetainOwned(self, of, replicate int) (int, error)
}

var (
	_ Link = (*SimNet)(nil)
	_ Link = (*TCPLink)(nil)
	_ Link = (*FaultStore)(nil)
)

// NewInProcess returns the zero-cost link to srv: a SimNet that charges
// nothing, so trainers and the embedding server share an address space and
// calls go straight to the server (which is itself shard-parallel).
func NewInProcess(srv *embed.Server) *SimNet { return NewSimNet(srv, 0, 0) }

// staleFromEmbed converts the embed layer's fence rejection to the
// transport's attributed form, decoding the carried table when the server
// holds it in a form this transport understands (a *RoutingTable installed
// in-process, or encoded bytes installed over a wire).
func staleFromEmbed(se *embed.StaleRouting) *StaleRoutingError {
	out := &StaleRoutingError{Server: -1, Epoch: se.Epoch}
	switch tb := se.Table.(type) {
	case *RoutingTable:
		out.Table = tb
	case []byte:
		if rt, err := decodeRouting(tb); err == nil {
			out.Table = rt
		}
	}
	return out
}

// checkpointBytes serializes srv. Checkpointing to memory cannot fail; an
// encoder error means corrupted in-process state and dies loudly like every
// other errorless-path failure.
func checkpointBytes(srv *embed.Server) []byte {
	var buf bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		panic(fmt.Sprintf("transport: checkpoint: %v", err))
	}
	return buf.Bytes()
}

// payloadBytes is the wire size of a fetch or write touching n rows.
func payloadBytes(n, dim int) int64 {
	return int64(n) * (idBytes + int64(dim)*4)
}

// SimNet wraps a server behind a simulated network link: every call pays a
// fixed per-call latency (one round trip) plus payload-bytes/bandwidth of
// serialization delay. It makes the overlap the pipeline buys visible in
// wall-clock terms and lets experiments sweep link speeds without a
// cluster. A free link (zero latency, infinite bandwidth) is the in-process
// fabric: it charges nothing and reports itself instant, so a tier of free
// links scatters serially on the calling goroutine.
type SimNet struct {
	Server *embed.Server
	// Latency is the per-call round-trip time.
	Latency time.Duration
	// Bandwidth is the link speed in bytes/second; 0 means infinite.
	Bandwidth float64

	arena *RowArena

	// announced is the routing epoch this link's data ops are declared
	// under (see embed.Server.RoutedFetchInto). 0 until a reshard touches
	// the tier — and the server accepts everything at epoch 0, so the
	// pre-reshard path is unchanged.
	announced atomic.Uint64

	fetches, writes            atomic.Int64
	rowsFetched, rowsWritten   atomic.Int64
	bytesFetched, bytesWritten atomic.Int64
	delayNs                    atomic.Int64
}

// NewSimNet returns a transport to srv over a simulated link.
func NewSimNet(srv *embed.Server, latency time.Duration, bandwidth float64) *SimNet {
	if latency < 0 || bandwidth < 0 {
		panic(fmt.Sprintf("transport: negative latency %v or bandwidth %v", latency, bandwidth))
	}
	return &SimNet{Server: srv, Latency: latency, Bandwidth: bandwidth, arena: Rows(srv.Dim)}
}

// instant implements instantStore: a free link completes inline without
// blocking, so ShardedStore fans out over it serially.
func (t *SimNet) instant() bool { return t.Latency == 0 && t.Bandwidth == 0 }

// Name implements Store.
func (t *SimNet) Name() string {
	if t.instant() {
		return "inproc"
	}
	return "simnet"
}

// Dim implements Store.
func (t *SimNet) Dim() int { return t.Server.Dim }

// delay sleeps for the cost of moving bytes over the link and records it.
func (t *SimNet) delay(bytes int64) {
	d := t.Latency
	if t.Bandwidth > 0 {
		d += time.Duration(float64(bytes) / t.Bandwidth * float64(time.Second))
	}
	if d <= 0 {
		return
	}
	time.Sleep(d)
	t.delayNs.Add(int64(d))
}

// rowArena tolerates literal-constructed transports that skipped NewSimNet.
func (t *SimNet) rowArena() *RowArena {
	if t.arena != nil {
		return t.arena
	}
	return Rows(t.Server.Dim)
}

// Fetch implements Store, serving the rows out of the shared arena. The
// errorless face cannot surface a routing fence; only tier clients (which
// use TryFetch) ever install routing, so a fence here is a programming
// error and dies loudly.
func (t *SimNet) Fetch(ids []uint64) [][]float32 {
	rows, err := t.TryFetch(ids)
	if err != nil {
		panic(err)
	}
	return rows
}

// Write implements Store (see Fetch for the fence contract).
func (t *SimNet) Write(ids []uint64, rows [][]float32) {
	if err := t.TryWrite(ids, rows); err != nil {
		panic(err)
	}
}

// Stats implements Store.
func (t *SimNet) Stats() Stats {
	return Stats{
		Fetches:        t.fetches.Load(),
		Writes:         t.writes.Load(),
		RowsFetched:    t.rowsFetched.Load(),
		RowsWritten:    t.rowsWritten.Load(),
		BytesFetched:   t.bytesFetched.Load(),
		BytesWritten:   t.bytesWritten.Load(),
		SimulatedDelay: time.Duration(t.delayNs.Load()),
	}
}

// Fingerprint implements Store. Tier control ops are verification plumbing,
// off the measured data path, so the simulated link charges them nothing.
func (t *SimNet) Fingerprint() uint64 { return t.Server.Fingerprint() }

// Checkpoint implements Store.
func (t *SimNet) Checkpoint() []byte { return checkpointBytes(t.Server) }

// Shutdown implements Store: the server's lifetime belongs to whoever built
// it (no remote process behind a simulated link).
func (t *SimNet) Shutdown() {}

// ServerStats implements Store.
func (t *SimNet) ServerStats() []Stats { return []Stats{t.Stats()} }

// The Try ops implement Link. A simulated link models delay, not loss, so
// the only error they can return is the routing fence (the fault-injection
// wrapper models loss). A fenced op still pays the link charge — the bytes
// moved and were refused, exactly like a real network. Recovery and
// migration transfers move real payload and are charged like the data
// path; control ops are free like the other tier plumbing.
func (t *SimNet) TryFetch(ids []uint64) ([][]float32, error) {
	bytes := payloadBytes(len(ids), t.Server.Dim)
	t.delay(bytes)
	rows := GetRowSlice(len(ids))
	t.rowArena().GetN(rows)
	if se := t.Server.RoutedFetchInto(t.announced.Load(), ids, rows); se != nil {
		t.rowArena().PutN(rows)
		PutRowSlice(rows)
		return nil, staleFromEmbed(se)
	}
	t.fetches.Add(1)
	t.rowsFetched.Add(int64(len(ids)))
	t.bytesFetched.Add(bytes)
	return rows, nil
}

func (t *SimNet) TryWrite(ids []uint64, rows [][]float32) error {
	bytes := payloadBytes(len(ids), t.Server.Dim)
	t.delay(bytes)
	if se := t.Server.RoutedWrite(t.announced.Load(), ids, rows); se != nil {
		return staleFromEmbed(se)
	}
	t.writes.Add(1)
	t.rowsWritten.Add(int64(len(ids)))
	t.bytesWritten.Add(bytes)
	return nil
}

func (t *SimNet) TryCheckpoint() ([]byte, error) { return checkpointBytes(t.Server), nil }

func (t *SimNet) TryBeginRecovery() error {
	t.Server.BeginRecovery()
	return nil
}

func (t *SimNet) TryWriteRecovery(ids []uint64, rows [][]float32) error {
	t.delay(payloadBytes(len(ids), t.Server.Dim))
	t.Server.WriteRecovery(ids, rows)
	return nil
}

func (t *SimNet) TryEndRecovery() error {
	t.Server.EndRecovery()
	return nil
}

// TryInstallRouting hands the server the table by reference — no wire, no
// encoding.
func (t *SimNet) TryInstallRouting(rt *RoutingTable) error {
	t.Server.InstallRouting(rt.Epoch, rt)
	t.announced.Store(rt.Epoch)
	return nil
}

func (t *SimNet) TryAnnounceEpoch(epoch uint64) error {
	t.announced.Store(epoch)
	return nil
}

func (t *SimNet) TryExportPartIn(part, of, within, withinOf int) ([]uint64, [][]float32, error) {
	ids, rows := t.Server.ExportPartIn(part, of, within, withinOf)
	t.delay(payloadBytes(len(ids), t.Server.Dim))
	return ids, rows, nil
}

func (t *SimNet) TryFingerprintPartIn(part, of, within, withinOf int) (uint64, error) {
	return t.Server.FingerprintPartIn(part, of, within, withinOf), nil
}

func (t *SimNet) TryRetainOwned(self, of, replicate int) (int, error) {
	return t.Server.RetainOwned(self, of, replicate), nil
}
