package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MeshMsg is one trainer-to-trainer message: a replica push or a batched
// delayed-sync flush in the LRPP engine. Bytes is the payload's wire size,
// declared by the sender and charged against the link by simulated meshes.
type MeshMsg struct {
	From, To int
	Bytes    int64
	Payload  any
}

// MeshStats accounts the traffic a mesh has carried.
type MeshStats struct {
	Msgs  int64
	Bytes int64
	// Dropped counts messages discarded because the destination endpoint
	// was closed before delivery.
	Dropped int64
	// SimulatedDelay is the summed per-message latency + serialization
	// delay a simulated mesh injected (zero for in-process meshes).
	SimulatedDelay time.Duration
}

// Endpoint is one trainer's port on the mesh.
type Endpoint interface {
	// Rank returns this endpoint's index.
	Rank() int
	// Send queues payload for delivery to trainer `to`. It reports whether
	// the message was accepted; sends to a closed endpoint are dropped.
	// Send never blocks on the receiver. bytes is the size the sender
	// declares for payload, PayloadSize(payload) for every engine send; the
	// TCP endpoint takes its frame at that size.
	//
	// Send transfers ownership on every fabric: a payload goes to exactly
	// one peer, and the caller never touches it — its id runs, rows or
	// segments — afterwards, accepted or not. In-process meshes hand the
	// value itself to the receiver, which recycles it; the TCP endpoint
	// recycles it into the pools as soon as it is encoded. A payload bound
	// for several peers is built once per peer.
	Send(to int, bytes int64, payload any) bool
	// Recv blocks for the next message. ok=false once the endpoint has
	// been closed and its queue drained. Messages may arrive in a
	// different order than they were sent — receivers must key, not
	// sequence, their protocol state.
	Recv() (MeshMsg, bool)
	// Close marks the endpoint closed: queued messages remain readable,
	// new deliveries are dropped, and blocked Recv calls wake.
	Close()
}

// Mesh is the trainer-to-trainer fabric: N endpoints, any-to-any.
type Mesh interface {
	Size() int
	Endpoint(rank int) Endpoint
	Stats() MeshStats
	Name() string
	// Quiesce blocks until no deliveries are in flight (simulated meshes
	// deliver asynchronously).
	Quiesce()
}

// pendingCount tracks in-flight deliveries for Quiesce. Unlike a
// sync.WaitGroup, add and wait may race freely: multiple trainers sharing
// one mesh object (worker tests, the loopback TCP facade) can have one
// endpoint quiescing while another still sends, which is defined behavior —
// wait returns at any instant the count is zero.
type pendingCount struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func (p *pendingCount) add(d int) {
	p.mu.Lock()
	if p.cond == nil {
		p.cond = sync.NewCond(&p.mu)
	}
	p.n += d
	if p.n < 0 {
		panic("transport: negative in-flight count")
	}
	if p.n == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *pendingCount) wait() {
	p.mu.Lock()
	if p.cond == nil {
		p.cond = sync.NewCond(&p.mu)
	}
	for p.n > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// inbox is one endpoint's delivery queue, shared by both mesh types.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []MeshMsg // queue[head:] is pending; rewound to empty when drained
	head   int
	closed bool
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) put(m MeshMsg) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	if b.head > 0 && len(b.queue) == cap(b.queue) {
		// Full behind a consumed prefix: compact before append grows.
		n := copy(b.queue, b.queue[b.head:])
		clear(b.queue[n:])
		b.queue, b.head = b.queue[:n], 0
	}
	b.queue = append(b.queue, m)
	b.cond.Signal()
	return true
}

func (b *inbox) get() (MeshMsg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.head == len(b.queue) && !b.closed {
		b.cond.Wait()
	}
	if b.head == len(b.queue) {
		return MeshMsg{}, false
	}
	m := b.queue[b.head]
	b.queue[b.head] = MeshMsg{}
	b.head++
	if b.head == len(b.queue) {
		// Drained: reuse the backing array from its start instead of
		// letting append reallocate behind a sliding window.
		b.queue, b.head = b.queue[:0], 0
	}
	return m, true
}

func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// InprocMesh delivers messages instantly between in-process endpoints: the
// zero-cost fabric the functional tests run on.
type InprocMesh struct {
	boxes   []*inbox
	msgs    atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64
}

// NewInprocMesh returns an n-endpoint in-process mesh.
func NewInprocMesh(n int) *InprocMesh {
	if n <= 0 {
		panic(fmt.Sprintf("transport: mesh size %d", n))
	}
	m := &InprocMesh{boxes: make([]*inbox, n)}
	for i := range m.boxes {
		m.boxes[i] = newInbox()
	}
	return m
}

// Name implements Mesh.
func (m *InprocMesh) Name() string { return "inproc-mesh" }

// Size implements Mesh.
func (m *InprocMesh) Size() int { return len(m.boxes) }

// Quiesce implements Mesh; in-process delivery is synchronous.
func (m *InprocMesh) Quiesce() {}

// Stats implements Mesh.
func (m *InprocMesh) Stats() MeshStats {
	return MeshStats{Msgs: m.msgs.Load(), Bytes: m.bytes.Load(), Dropped: m.dropped.Load()}
}

// Endpoint implements Mesh.
func (m *InprocMesh) Endpoint(rank int) Endpoint {
	if rank < 0 || rank >= len(m.boxes) {
		panic(fmt.Sprintf("transport: endpoint %d out of [0,%d)", rank, len(m.boxes)))
	}
	return &inprocEndpoint{mesh: m, rank: rank}
}

type inprocEndpoint struct {
	mesh *InprocMesh
	rank int
}

func (e *inprocEndpoint) Rank() int { return e.rank }

func (e *inprocEndpoint) Send(to int, bytes int64, payload any) bool {
	m := e.mesh
	if to < 0 || to >= len(m.boxes) {
		panic(fmt.Sprintf("transport: send to %d out of [0,%d)", to, len(m.boxes)))
	}
	if !m.boxes[to].put(MeshMsg{From: e.rank, To: to, Bytes: bytes, Payload: payload}) {
		m.dropped.Add(1)
		return false
	}
	m.msgs.Add(1)
	m.bytes.Add(bytes)
	return true
}

func (e *inprocEndpoint) Recv() (MeshMsg, bool) { return e.mesh.boxes[e.rank].get() }
func (e *inprocEndpoint) Close()                { e.mesh.boxes[e.rank].close() }

// SimMesh is the mesh over simulated point-to-point links: every directed
// endpoint pair is its own link (as with per-host NICs in the paper's EC2
// topology) with a serialization bandwidth, plus a propagation latency per
// message. Messages on one link serialize — concurrent transfers share the
// link's bandwidth back-to-back — while different links proceed
// independently, so a small message between one pair can overtake a large
// in-flight transfer between another: receivers see genuine in-flight
// reordering.
type SimMesh struct {
	// Latency is the per-message propagation delay.
	Latency time.Duration
	// Bandwidth is each directed link's speed in bytes/second; 0 means
	// infinite.
	Bandwidth float64

	boxes   []*inbox
	links   []linkClock // n*n, indexed from*n+to
	pending pendingCount
	msgs    atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64
	delayNs atomic.Int64
}

type linkClock struct {
	mu   sync.Mutex
	busy time.Time // link occupied serializing until this instant
}

// NewSimMesh returns an n-endpoint mesh of simulated links.
func NewSimMesh(n int, latency time.Duration, bandwidth float64) *SimMesh {
	if n <= 0 {
		panic(fmt.Sprintf("transport: mesh size %d", n))
	}
	if latency < 0 || bandwidth < 0 {
		panic(fmt.Sprintf("transport: negative latency %v or bandwidth %v", latency, bandwidth))
	}
	m := &SimMesh{Latency: latency, Bandwidth: bandwidth,
		boxes: make([]*inbox, n), links: make([]linkClock, n*n)}
	for i := range m.boxes {
		m.boxes[i] = newInbox()
	}
	return m
}

// Name implements Mesh.
func (m *SimMesh) Name() string { return "sim-mesh" }

// Size implements Mesh.
func (m *SimMesh) Size() int { return len(m.boxes) }

// Quiesce implements Mesh: blocks until every in-flight delivery has
// landed (or been dropped against a closed endpoint). Safe to call while
// other endpoints keep sending; it returns at an instant the fabric is
// momentarily empty.
func (m *SimMesh) Quiesce() { m.pending.wait() }

// Stats implements Mesh.
func (m *SimMesh) Stats() MeshStats {
	return MeshStats{
		Msgs: m.msgs.Load(), Bytes: m.bytes.Load(), Dropped: m.dropped.Load(),
		SimulatedDelay: time.Duration(m.delayNs.Load()),
	}
}

// Endpoint implements Mesh.
func (m *SimMesh) Endpoint(rank int) Endpoint {
	if rank < 0 || rank >= len(m.boxes) {
		panic(fmt.Sprintf("transport: endpoint %d out of [0,%d)", rank, len(m.boxes)))
	}
	return &simEndpoint{mesh: m, rank: rank}
}

type simEndpoint struct {
	mesh *SimMesh
	rank int
}

func (e *simEndpoint) Rank() int { return e.rank }

func (e *simEndpoint) Send(to int, bytes int64, payload any) bool {
	m := e.mesh
	n := len(m.boxes)
	if to < 0 || to >= n {
		panic(fmt.Sprintf("transport: send to %d out of [0,%d)", to, n))
	}
	now := time.Now()
	var ser time.Duration
	if m.Bandwidth > 0 {
		ser = time.Duration(float64(bytes) / m.Bandwidth * float64(time.Second))
	}
	link := &m.links[e.rank*n+to]
	link.mu.Lock()
	start := now
	if link.busy.After(start) {
		start = link.busy
	}
	depart := start.Add(ser)
	link.busy = depart
	link.mu.Unlock()
	arrival := depart.Add(m.Latency)

	m.msgs.Add(1)
	m.bytes.Add(bytes)
	m.delayNs.Add(int64(arrival.Sub(now)))
	msg := MeshMsg{From: e.rank, To: to, Bytes: bytes, Payload: payload}
	m.pending.add(1)
	go func() {
		defer m.pending.add(-1)
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		if !m.boxes[to].put(msg) {
			m.dropped.Add(1)
		}
	}()
	return true
}

func (e *simEndpoint) Recv() (MeshMsg, bool) { return e.mesh.boxes[e.rank].get() }
func (e *simEndpoint) Close()                { e.mesh.boxes[e.rank].close() }
