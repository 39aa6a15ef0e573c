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
// wrapper) is a Link: the Store face, the error-returning data ops the tier
// client retries and fails over with, and one control verb, Control, that
// carries every certification, rejoin and reshard op (a Ctl) to one
// dispatcher shared by all three.
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
// the Store face, the two data ops in error-returning form, and one control
// verb. Every tier child implements it — SimNet (the in-process fabric is a
// free SimNet), TCPLink, and the fault-injection wrapper — and a
// ShardedStore checks for it once, wherever a connection enters the tier.
// TryFetch and TryWrite mirror Fetch and Write exactly (same ownership
// rules, same accounting) but report failure instead of dying, so a
// replicated tier can retry, condemn the server, and fail over.
//
// Control runs one control-plane op (a Ctl) for certification, rejoin and
// resharding. Every implementation hands it to the same dispatcher,
// control, so an op means the same thing and refuses the same arguments
// with the same error on every fabric. Control does not modify c, and
// keeps nothing of it but an installed Routing table, which an in-process
// server holds by reference.
type Link interface {
	Store
	TryFetch(ids []uint64) ([][]float32, error)
	TryWrite(ids []uint64, rows [][]float32) error
	Control(c *Ctl) (CtlResult, error)
}

var (
	_ Link = (*SimNet)(nil)
	_ Link = (*TCPLink)(nil)
	_ Link = (*FaultStore)(nil)
)

// CtlOp names a control op. Its value is the op's link opcode, a wire
// constant (see tcp.go), and ctlNames names every one. Each op reads only
// its own Ctl fields.
type CtlOp byte

const (
	CtlShutdown          = CtlOp(opShutdown)          // a serving process stops once it has answered
	CtlWriteRecovery     = CtlOp(opWriteRecovery)     // IDs and Rows, skipping rows a live write marked
	CtlBeginRecovery     = CtlOp(opBeginRecovery)     // clear the live-write marks (embed.Server.BeginRecovery)
	CtlInstallRouting    = CtlOp(opInstallRouting)    // install Routing (monotonic by epoch) and announce its epoch
	CtlAnnounceEpoch     = CtlOp(opAnnounceEpoch)     // route this link's future data ops by Epoch
	CtlExportPartIn      = CtlOp(opExportPartIn)      // the partition intersection's IDs and Rows, ascending by id
	CtlFingerprintPartIn = CtlOp(opFingerprintPartIn) // the same intersection's digest, in N
	CtlRetainOwned       = CtlOp(opRetainOwned)       // drop rows outside server Part's replica set; N rows went
)

var ctlNames = [256]string{
	CtlShutdown:          "shutdown",
	CtlWriteRecovery:     "write-recovery",
	CtlBeginRecovery:     "begin-recovery",
	CtlInstallRouting:    "install-routing",
	CtlAnnounceEpoch:     "announce-epoch",
	CtlExportPartIn:      "export",
	CtlFingerprintPartIn: "fingerprint",
	CtlRetainOwned:       "retain",
}

func (op CtlOp) String() string {
	if name := ctlNames[op]; name != "" {
		return name
	}
	return fmt.Sprintf("op %#x", byte(op))
}

// Ctl is one control request. Export and fingerprint take partition Part
// of an Of-way split intersected with partition Within of a WithinOf-way
// one (WithinOf <= 1 disables the second filter), exactly as embed.Server
// defines FingerprintPartIn: the plain partition p of an of-way split is
// {Part: p, Of: of}. Retain keeps server Part's Replicate-deep replica set
// of an Of-way split.
type Ctl struct {
	Op                                    CtlOp
	Part, Of, Within, WithinOf, Replicate int
	Epoch                                 uint64
	Routing                               *RoutingTable
	IDs                                   []uint64
	Rows                                  [][]float32
}

// CtlResult is what a control op returns: the exported ids and rows, and a
// digest or row count in N.
type CtlResult struct {
	IDs  []uint64
	Rows [][]float32
	N    uint64
}

// RefusedError is a control request the dispatcher refused for its
// arguments: the caller is at fault, not the server, so the tier returns it
// at once — no retry, and no server condemned over it.
type RefusedError struct{ Reason string }

func (e *RefusedError) Error() string { return e.Reason }

// refuse returns the refusal of a control request.
func refuse(format string, args ...any) error {
	return &RefusedError{Reason: fmt.Sprintf(format, args...)}
}

// check is the one argument check of a control request against a server
// of width dim: the refusal every fabric returns for it, and the
// dispatcher's only error.
func (c *Ctl) check(dim int) error {
	if ctlNames[c.Op] == "" {
		return refuse("transport: unknown control %v", c.Op)
	}
	switch c.Op {
	case CtlExportPartIn, CtlFingerprintPartIn:
		if c.Of <= 0 || c.Part < 0 || c.Part >= c.Of || (c.WithinOf > 1 && (c.Within < 0 || c.Within >= c.WithinOf)) {
			return refuse("transport: %v: partition %d of %d within %d of %d", c.Op, c.Part, c.Of, c.Within, c.WithinOf)
		}
	case CtlRetainOwned:
		if c.Of <= 0 || c.Part < 0 || c.Part >= c.Of || c.Replicate < 1 {
			return refuse("transport: %v: server %d of %d, replicate %d", c.Op, c.Part, c.Of, c.Replicate)
		}
	case CtlInstallRouting:
		if c.Routing == nil {
			return refuse("transport: %v: no table", c.Op)
		}
		if err := c.Routing.validate(); err != nil {
			return refuse("%v", err)
		}
	case CtlWriteRecovery:
		if len(c.IDs) != len(c.Rows) {
			return refuse("transport: %v: %d ids, %d rows", c.Op, len(c.IDs), len(c.Rows))
		}
		for i, row := range c.Rows {
			if len(row) != dim {
				return refuse("transport: %v: row %d has %d elements, server dim is %d", c.Op, i, len(row), dim)
			}
		}
	}
	return nil
}

// control is the one control dispatcher: every fabric's Control, and the
// TCP server for every control opcode, applies c to srv here. announced is
// the calling connection's declared routing epoch (see
// embed.Server.RoutedFetchInto), which install and announce move. The
// server keeps an installed table by reference: a fence rejection hands it
// back, encoded when it crosses a wire.
func control(srv *embed.Server, c *Ctl, announced *atomic.Uint64) (CtlResult, error) {
	var res CtlResult
	if err := c.check(srv.Dim); err != nil {
		return res, err
	}
	switch c.Op {
	case CtlShutdown:
		// Nothing to do here: a serving process stops once it has answered.
	case CtlWriteRecovery:
		srv.WriteRecovery(c.IDs, c.Rows)
	case CtlBeginRecovery:
		srv.BeginRecovery()
	case CtlInstallRouting:
		srv.InstallRouting(c.Routing.Epoch, c.Routing)
		announced.Store(c.Routing.Epoch)
	case CtlAnnounceEpoch:
		announced.Store(c.Epoch)
	case CtlExportPartIn:
		res.IDs, res.Rows = srv.ExportPartIn(c.Part, c.Of, c.Within, c.WithinOf)
	case CtlFingerprintPartIn:
		res.N = srv.FingerprintPartIn(c.Part, c.Of, c.Within, c.WithinOf)
	case CtlRetainOwned:
		res.N = uint64(srv.RetainOwned(c.Part, c.Of, c.Replicate))
	}
	return res, nil
}

// mustControl is Control for the errorless Store face (Fingerprint,
// Shutdown): a failure panics.
func mustControl(l Link, c *Ctl) CtlResult {
	res, err := l.Control(c)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// NewInProcess returns the zero-cost link to srv: a SimNet that charges
// nothing, so trainers and the embedding server share an address space and
// calls go straight to the server (which groups each call by shard).
func NewInProcess(srv *embed.Server) *SimNet { return NewSimNet(srv, 0, 0) }

// staleFromEmbed converts the embed layer's fence rejection to the
// transport's attributed form, table included.
func staleFromEmbed(se *embed.StaleRouting) *StaleRoutingError {
	rt, _ := se.Table.(*RoutingTable)
	return &StaleRoutingError{Server: -1, Epoch: se.Epoch, Table: rt}
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

// Fingerprint and Shutdown implement Store through Control. Shutdown is a
// no-op: the server's lifetime belongs to whoever built it (no remote
// process behind a simulated link).
func (t *SimNet) Fingerprint() uint64 {
	return mustControl(t, &Ctl{Op: CtlFingerprintPartIn, Of: 1}).N
}
func (t *SimNet) Shutdown() { mustControl(t, &Ctl{Op: CtlShutdown}) }

// ServerStats implements Store.
func (t *SimNet) ServerStats() []Stats { return []Stats{t.Stats()} }

// TryFetch, TryWrite and Control implement Link. A simulated link models
// delay, not loss, so the only error the data ops can return is the routing
// fence (the fault-injection wrapper models loss). A fenced op still pays
// the link charge — the bytes moved and were refused, exactly like a real
// network.
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

// Control charges the recovery and migration transfers like the data path
// (a recovery write by its request rows, an export by its result rows);
// every other control op is verification plumbing, off the measured data
// path, and free.
func (t *SimNet) Control(c *Ctl) (CtlResult, error) {
	if c.Op == CtlWriteRecovery {
		t.delay(payloadBytes(len(c.IDs), t.Server.Dim))
	}
	res, err := control(t.Server, c, &t.announced)
	if c.Op == CtlExportPartIn {
		t.delay(payloadBytes(len(res.IDs), t.Server.Dim))
	}
	return res, err
}
