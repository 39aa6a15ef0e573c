// Package transport is the system's wire layer: the trainer↔embedding-tier
// client (Store, the fetch/write data path plus tier operations, fanning
// out over S servers via ShardedStore) and the trainer↔trainer fabric
// (Mesh), each with three interchangeable
// implementations —
//
//   - in-process (InProcess, InprocMesh): direct calls, zero cost; the
//     fabric the functional tests run on;
//   - simulated (SimNet, SimMesh): a timing model charging per-call latency
//     and per-link serialization bandwidth, so experiments can sweep the
//     paper's EC2 topology (trainers on p3 GPU nodes, embedding servers on
//     separate c5 nodes) without a cluster;
//   - TCP (TCPLink/ServeEmbed, TCPMesh): real sockets speaking the
//     length-prefixed little-endian protocol in codec.go, for genuinely
//     distributed multi-process runs.
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

// FallibleStore is the error-returning face of a Store. The Store methods
// are errorless by design — the in-process implementations cannot
// fail, and a worker with no embedding tier left cannot make progress — but
// replication needs a middle ground: a ShardedStore with replicate ≥ 2 can
// survive losing a server, so the per-server RPC must be able to *report*
// failure instead of dying. Children that implement FallibleStore get the
// retry/failover path; children that don't (they cannot fail, or a test stub
// that panics) keep the errorless path. The Try forms mirror their errorless
// counterparts exactly — same ownership rules, same accounting.
//
// TryFingerprintPart is the partition-scoped certificate
// (embed.Server.FingerprintPart): a replicated tier sums one partition
// fingerprint per partition, taken from the first live holder, so replicated
// rows are counted once.
type FallibleStore interface {
	TryFetch(ids []uint64) ([][]float32, error)
	TryWrite(ids []uint64, rows [][]float32) error
	TryFingerprintPart(part, of int) (uint64, error)
	TryCheckpoint() ([]byte, error)
}

// InProcess is the zero-cost transport: trainers and embedding servers
// share an address space and calls go straight to the server (which is
// itself shard-parallel).
type InProcess struct {
	Server *embed.Server

	arena *RowArena

	// announced is the routing epoch this link's data ops are declared
	// under (see embed.Server.RoutedFetchInto). 0 until a reshard touches
	// the tier — and the server accepts everything at epoch 0, so the
	// pre-reshard path is unchanged.
	announced atomic.Uint64

	fetches, writes            atomic.Int64
	rowsFetched, rowsWritten   atomic.Int64
	bytesFetched, bytesWritten atomic.Int64
}

// NewInProcess returns a direct-call transport to srv.
func NewInProcess(srv *embed.Server) *InProcess {
	return &InProcess{Server: srv, arena: Rows(srv.Dim)}
}

// Name implements Store.
func (t *InProcess) Name() string { return "inproc" }

// Dim implements Store.
func (t *InProcess) Dim() int { return t.Server.Dim }

// instant marks this transport as completing without blocking on I/O;
// ShardedStore fans out serially over instant children.
func (t *InProcess) instant() bool { return true }

// rowArena tolerates literal-constructed transports that skipped
// NewInProcess.
func (t *InProcess) rowArena() *RowArena {
	if t.arena != nil {
		return t.arena
	}
	return Rows(t.Server.Dim)
}

// Fetch implements Store, serving the rows out of the shared arena.
// The errorless face cannot surface a routing fence; only tier clients
// (which use TryFetch) ever install routing, so a fence here is a
// programming error and dies loudly.
func (t *InProcess) Fetch(ids []uint64) [][]float32 {
	rows, err := t.TryFetch(ids)
	if err != nil {
		panic(err)
	}
	return rows
}

// Write implements Store (see Fetch for the fence contract).
func (t *InProcess) Write(ids []uint64, rows [][]float32) {
	if err := t.TryWrite(ids, rows); err != nil {
		panic(err)
	}
}

// Stats implements Store.
func (t *InProcess) Stats() Stats {
	return Stats{
		Fetches:      t.fetches.Load(),
		Writes:       t.writes.Load(),
		RowsFetched:  t.rowsFetched.Load(),
		RowsWritten:  t.rowsWritten.Load(),
		BytesFetched: t.bytesFetched.Load(),
		BytesWritten: t.bytesWritten.Load(),
	}
}

// Fingerprint implements Store (a one-server tier: the server's own
// certificate).
func (t *InProcess) Fingerprint() uint64 { return t.Server.Fingerprint() }

// FingerprintPart is the partition-scoped certificate (see FallibleStore).
func (t *InProcess) FingerprintPart(part, of int) uint64 { return t.Server.FingerprintPart(part, of) }

// Checkpoint implements Store.
func (t *InProcess) Checkpoint() []byte { return checkpointBytes(t.Server) }

// Shutdown implements Store: the in-process server's lifetime belongs to
// whoever built it.
func (t *InProcess) Shutdown() {}

// ServerStats implements Store.
func (t *InProcess) ServerStats() []Stats { return []Stats{t.Stats()} }

// TryFetch, TryWrite, TryFingerprintPart, TryCheckpoint implement
// FallibleStore. A shared address space cannot fail, so the only error they
// can return is the routing fence — implementing the interface keeps the
// replicated tier's routing uniform across fabrics (and lets tests inject
// faults by wrapping).
func (t *InProcess) TryFetch(ids []uint64) ([][]float32, error) {
	rows := GetRowSlice(len(ids))
	t.rowArena().GetN(rows)
	if se := t.Server.RoutedFetchInto(t.announced.Load(), ids, rows); se != nil {
		t.rowArena().PutN(rows)
		PutRowSlice(rows)
		return nil, staleFromEmbed(se)
	}
	t.fetches.Add(1)
	t.rowsFetched.Add(int64(len(ids)))
	t.bytesFetched.Add(payloadBytes(len(ids), t.Server.Dim))
	return rows, nil
}

func (t *InProcess) TryWrite(ids []uint64, rows [][]float32) error {
	if se := t.Server.RoutedWrite(t.announced.Load(), ids, rows); se != nil {
		return staleFromEmbed(se)
	}
	t.writes.Add(1)
	t.rowsWritten.Add(int64(len(ids)))
	t.bytesWritten.Add(payloadBytes(len(ids), t.Server.Dim))
	return nil
}

func (t *InProcess) TryFingerprintPart(part, of int) (uint64, error) {
	return t.Server.FingerprintPart(part, of), nil
}

func (t *InProcess) TryCheckpoint() ([]byte, error) { return checkpointBytes(t.Server), nil }

// TryExportPart implements PartExporter (the anti-entropy source read);
// TryWriteRecovery and TryEndRecovery implement RecoveryStore (the rejoin
// transfer sink). Errorless in-process, like the other Try faces.
func (t *InProcess) TryExportPart(part, of int) ([]uint64, [][]float32, error) {
	ids, rows := t.Server.ExportPart(part, of)
	return ids, rows, nil
}

func (t *InProcess) TryWriteRecovery(ids []uint64, rows [][]float32) error {
	t.Server.WriteRecovery(ids, rows)
	return nil
}

func (t *InProcess) TryEndRecovery() error {
	t.Server.EndRecovery()
	return nil
}

// TryInstallRouting, TryAnnounceEpoch, TryBeginRecovery, TryExportPartIn,
// TryFingerprintPartIn, TryRetainOwned implement ReshardStore. The server
// holds the table by reference — no wire, no encoding.
func (t *InProcess) TryInstallRouting(rt *RoutingTable) error {
	t.Server.InstallRouting(rt.Epoch, rt)
	t.announced.Store(rt.Epoch)
	return nil
}

func (t *InProcess) TryAnnounceEpoch(epoch uint64) error {
	t.announced.Store(epoch)
	return nil
}

func (t *InProcess) TryBeginRecovery() error {
	t.Server.BeginRecovery()
	return nil
}

func (t *InProcess) TryExportPartIn(part, of, within, withinOf int) ([]uint64, [][]float32, error) {
	ids, rows := t.Server.ExportPartIn(part, of, within, withinOf)
	return ids, rows, nil
}

func (t *InProcess) TryFingerprintPartIn(part, of, within, withinOf int) (uint64, error) {
	return t.Server.FingerprintPartIn(part, of, within, withinOf), nil
}

func (t *InProcess) TryRetainOwned(self, of, replicate int) (int, error) {
	return t.Server.RetainOwned(self, of, replicate), nil
}

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
// cluster.
type SimNet struct {
	Server *embed.Server
	// Latency is the per-call round-trip time.
	Latency time.Duration
	// Bandwidth is the link speed in bytes/second; 0 means infinite.
	Bandwidth float64

	arena *RowArena

	// announced is the routing epoch this link's data ops are declared
	// under (see InProcess.announced).
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

// Name implements Store.
func (t *SimNet) Name() string { return "simnet" }

// Dim implements Store.
func (t *SimNet) Dim() int { return t.Server.Dim }

// delay sleeps for the cost of moving bytes over the link and records it.
func (t *SimNet) delay(bytes int64) {
	d := t.Latency
	if t.Bandwidth > 0 {
		d += time.Duration(float64(bytes) / t.Bandwidth * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
	t.delayNs.Add(int64(d))
}

// rowArena tolerates literal-constructed transports that skipped NewSimNet.
func (t *SimNet) rowArena() *RowArena {
	if t.arena != nil {
		return t.arena
	}
	return Rows(t.Server.Dim)
}

// Fetch implements Store (see InProcess.Fetch for the fence contract).
func (t *SimNet) Fetch(ids []uint64) [][]float32 {
	rows, err := t.TryFetch(ids)
	if err != nil {
		panic(err)
	}
	return rows
}

// Write implements Store.
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

// FingerprintPart is the partition-scoped certificate (see FallibleStore).
func (t *SimNet) FingerprintPart(part, of int) uint64 { return t.Server.FingerprintPart(part, of) }

// Checkpoint implements Store.
func (t *SimNet) Checkpoint() []byte { return checkpointBytes(t.Server) }

// Shutdown implements Store (no remote process behind a simulated link).
func (t *SimNet) Shutdown() {}

// ServerStats implements Store.
func (t *SimNet) ServerStats() []Stats { return []Stats{t.Stats()} }

// TryFetch, TryWrite, TryFingerprintPart, TryCheckpoint implement
// FallibleStore; a simulated link models delay, not loss, so the only
// error they can return is the routing fence (the fault-injection tests
// wrap these to model loss). A fenced op still pays the link charge — the
// bytes moved and were refused, exactly like a real network.
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

func (t *SimNet) TryFingerprintPart(part, of int) (uint64, error) {
	return t.Server.FingerprintPart(part, of), nil
}

func (t *SimNet) TryCheckpoint() ([]byte, error) { return checkpointBytes(t.Server), nil }

// TryExportPart implements PartExporter; TryWriteRecovery/TryEndRecovery
// implement RecoveryStore. Recovery transfers move real payload, so the
// simulated link charges them like the data path (control probes stay free).
func (t *SimNet) TryExportPart(part, of int) ([]uint64, [][]float32, error) {
	ids, rows := t.Server.ExportPart(part, of)
	t.delay(payloadBytes(len(ids), t.Server.Dim))
	return ids, rows, nil
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

// TryInstallRouting, TryAnnounceEpoch, TryBeginRecovery, TryExportPartIn,
// TryFingerprintPartIn, TryRetainOwned implement ReshardStore. Control ops
// are free like the other tier plumbing; the export moves real payload and
// is charged like the recovery stream.
func (t *SimNet) TryInstallRouting(rt *RoutingTable) error {
	t.Server.InstallRouting(rt.Epoch, rt)
	t.announced.Store(rt.Epoch)
	return nil
}

func (t *SimNet) TryAnnounceEpoch(epoch uint64) error {
	t.announced.Store(epoch)
	return nil
}

func (t *SimNet) TryBeginRecovery() error {
	t.Server.BeginRecovery()
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
