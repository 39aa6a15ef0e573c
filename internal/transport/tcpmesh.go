package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// meshMagic opens every mesh connection: "BGM" + protocol version.
// Version 2: replica pushes and sync flushes carry no ids, and plans carry
// the owner's needed-next flags. Version 3: plans travel gap-coded, their
// iteration first (planWriter.plan). Version 4: a collective frame is one
// chunk of a reduce-scatter or all-gather, with no segment table. Version
// 5: an all-gather chunk travels XOR-coded against its previous round
// (collective.Pack).
const meshMagic uint32 = 'B'<<24 | 'G'<<16 | 'M'<<8 | 5

// meshDialTimeout bounds how long mesh construction waits for peers: the
// processes of one run start in arbitrary order, so dials retry and accepts
// wait until every pairwise connection is up.
const meshDialTimeout = 30 * time.Second

// TCPMesh is one trainer process's port on the trainer-to-trainer fabric
// over real sockets: a full mesh of pairwise TCP connections (rank i dials
// every j < i and accepts from every j > i, with a rank-exchange
// handshake). Payloads cross the wire through the codec; per-peer writer
// goroutines coalesce queued sends into single buffered flushes, and
// per-peer readers feed the local inbox — so, like every Mesh, Send never
// blocks on the receiver and Recv is a plain blocking queue.
//
// Unlike InprocMesh/SimMesh, a TCPMesh value holds only the local
// endpoint: Endpoint(r) for a remote rank panics, because that endpoint
// lives in another process (NewLoopbackTCPMesh builds the all-ranks facade
// for single-process use). Endpoint Close follows the shared contract — it
// closes the local inbox (late arrivals count as dropped) but leaves the
// connections up, since peers may still be draining; Shutdown tears the
// sockets down.
type TCPMesh struct {
	rank int
	n    int
	box  *inbox

	peers []*tcpPeer // indexed by rank; nil at self

	sendWG pendingCount   // outbound frames queued but not yet flushed
	ioWG   sync.WaitGroup // per-peer reader/writer goroutines
	done   chan struct{}
	stop   sync.Once

	// slots names the buffers received plans decode into (DecodePlansInto).
	slots atomic.Pointer[PlanSlots]

	msgs, bytes, dropped atomic.Int64
	// Socket-frame counters (exclude self-sends); the loopback facade uses
	// them to tell when the fabric is globally quiet.
	sentFrames, recvFrames atomic.Int64
}

type tcpPeer struct {
	rank     int
	conn     net.Conn
	out      chan []byte
	broken   atomic.Bool
	departed atomic.Bool // peer announced a clean shutdown (goodbye frame)
}

// goodbyeByte is a 1-byte mesh frame a departing process sends each peer
// before closing its sockets, so survivors can tell clean teardown (a
// worker finished and shut its mesh down) from a crashed peer — the
// latter dies loudly instead of wedging the surviving trainers.
const goodbyeByte = 0xFF

// NewTCPMesh connects rank's endpoint of an n-trainer mesh, where addrs[i]
// is rank i's listen address. It binds addrs[rank] (or serves on lis when
// non-nil, which must already be bound to addrs[rank]), connects to every
// peer, and returns once the mesh is fully meshed.
func NewTCPMesh(rank int, addrs []string, lis net.Listener) (*TCPMesh, error) {
	n := len(addrs)
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("transport: mesh rank %d out of [0,%d)", rank, n)
	}
	if lis == nil {
		var err error
		lis, err = net.Listen("tcp", addrs[rank])
		if err != nil {
			return nil, fmt.Errorf("transport: mesh listen %s: %w", addrs[rank], err)
		}
	}
	m := &TCPMesh{
		rank:  rank,
		n:     n,
		box:   newInbox(),
		peers: make([]*tcpPeer, n),
		done:  make(chan struct{}),
	}

	if tl, ok := lis.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(meshDialTimeout))
	}
	type dialed struct {
		rank int
		conn net.Conn
		err  error
	}
	results := make(chan dialed, n)
	// Accept connections from every higher rank. A connection that fails
	// the handshake (a port scanner, health probe, or aborted dial) is
	// dropped and the accept retried — only a listener error (close or
	// deadline) gives up, and then one error result per still-expected
	// accept keeps the collector's result count exact.
	go func() {
		for got := 0; got < n-1-rank; {
			conn, err := lis.Accept()
			if err != nil {
				err = fmt.Errorf("transport: mesh accept: %w", err)
				for ; got < n-1-rank; got++ {
					results <- dialed{rank: -1, err: err}
				}
				return
			}
			from, err := meshAccept(conn, rank)
			if err != nil {
				conn.Close()
				continue
			}
			results <- dialed{rank: from, conn: conn}
			got++
		}
	}()
	// Dial every lower rank.
	for j := 0; j < rank; j++ {
		go func(j int) {
			conn, err := meshDial(addrs[j], rank)
			results <- dialed{rank: j, conn: conn, err: err}
		}(j)
	}

	var firstErr error
	for i := 0; i < n-1; i++ {
		d := <-results
		if d.err == nil && (d.rank < 0 || d.rank >= n || d.rank == rank || m.peers[d.rank] != nil) {
			d.err = fmt.Errorf("transport: mesh handshake: unexpected peer rank %d", d.rank)
		}
		if d.err != nil {
			if d.conn != nil {
				d.conn.Close()
			}
			if firstErr == nil {
				firstErr = d.err
				lis.Close() // unblock the acceptor; its error lands in results
			}
			continue
		}
		m.peers[d.rank] = &tcpPeer{rank: d.rank, conn: d.conn, out: make(chan []byte, 256)}
	}
	// Fully meshed (or failed): no further accepts will ever arrive.
	lis.Close()
	if firstErr != nil {
		for _, p := range m.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		return nil, firstErr
	}

	for _, p := range m.peers {
		if p == nil {
			continue
		}
		m.ioWG.Add(2)
		go m.writeLoop(p)
		go m.readLoop(p)
	}
	return m, nil
}

// meshDial connects to a lower-ranked peer and exchanges ranks.
func meshDial(addr string, selfRank int) (net.Conn, error) {
	conn, err := dialRetry(addr, meshDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: mesh dial %s: %w", addr, err)
	}
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:4], meshMagic)
	binary.LittleEndian.PutUint32(hello[4:], uint32(selfRank))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: mesh handshake write: %w", err)
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: mesh handshake read: %w", err)
	}
	if m := binary.LittleEndian.Uint32(ack[:4]); m != meshMagic {
		conn.Close()
		return nil, fmt.Errorf("transport: mesh handshake: magic %#x from %s", m, addr)
	}
	return conn, nil
}

// meshAccept completes the acceptor side of the rank exchange and returns
// the dialer's rank.
func meshAccept(conn net.Conn, selfRank int) (int, error) {
	conn.SetDeadline(time.Now().Add(meshDialTimeout))
	defer conn.SetDeadline(time.Time{})
	var hello [8]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, fmt.Errorf("transport: mesh handshake read: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hello[:4]); m != meshMagic {
		return 0, fmt.Errorf("transport: mesh handshake: magic %#x", m)
	}
	var ack [8]byte
	binary.LittleEndian.PutUint32(ack[:4], meshMagic)
	binary.LittleEndian.PutUint32(ack[4:], uint32(selfRank))
	if _, err := conn.Write(ack[:]); err != nil {
		return 0, fmt.Errorf("transport: mesh handshake write: %w", err)
	}
	return int(binary.LittleEndian.Uint32(hello[4:])), nil
}

// writeLoop drains one peer's outbound queue, coalescing bursts into single
// flushes. Frames are acknowledged to Quiesce (sendWG) only after they are
// flushed to the socket.
func (m *TCPMesh) writeLoop(p *tcpPeer) {
	defer m.ioWG.Done()
	bw := newFrameWriter(p.conn)
	// write returns the frame's pooled buffer (taken by Send) once written.
	write := func(frame []byte) error {
		err := bw.writeFrame(frame)
		putBuf(frame)
		return err
	}
	unflushed := 0
	settle := func(delivered bool) {
		if delivered {
			m.sentFrames.Add(int64(unflushed))
		} else {
			m.dropped.Add(int64(unflushed))
		}
		for ; unflushed > 0; unflushed-- {
			m.sendWG.add(-1)
		}
	}
	// drain settles whatever is still queued at exit so sendWG never leaks
	// frames that will not be written (Quiesce would otherwise hang).
	drain := func() {
		for {
			select {
			case <-p.out:
				m.dropped.Add(1)
				m.sendWG.add(-1)
			default:
				return
			}
		}
	}
	// fail drains the queue forever so senders never block on a dead peer.
	fail := func() {
		p.broken.Store(true)
		settle(false)
		for {
			select {
			case <-p.out:
				m.dropped.Add(1)
				m.sendWG.add(-1)
			case <-m.done:
				drain()
				return
			}
		}
	}
	for {
		var frame []byte
		select {
		case frame = <-p.out:
		case <-m.done:
			settle(true)
			drain()
			return
		}
		unflushed++
		if err := write(frame); err != nil {
			fail()
			return
		}
		for more := true; more; {
			select {
			case frame = <-p.out:
				unflushed++
				if err := write(frame); err != nil {
					fail()
					return
				}
			case <-m.done:
				settle(bw.Flush() == nil)
				drain()
				return
			default:
				more = false
			}
		}
		if err := bw.Flush(); err != nil {
			fail()
			return
		}
		settle(true)
	}
}

// readLoop decodes one peer's inbound frames into the local inbox. A frame
// arriving after the local endpoint closed counts as dropped, matching the
// simulated mesh's close-while-sending semantics. Losing a peer that
// neither said goodbye nor belongs to our own shutdown is a crashed
// process: the survivor panics rather than letting the engine wait forever
// on plans/collectives that will never arrive (the same die-loudly
// contract as TCPLink).
func (m *TCPMesh) readLoop(p *tcpPeer) {
	defer m.ioWG.Done()
	br := bufio.NewReaderSize(p.conn, 1<<16)
	// One body buffer serves every frame: DecodePayload copies everything
	// it returns out of the frame.
	var buf []byte
	for {
		body, err := readFrame(br, buf)
		if err != nil {
			select {
			case <-m.done:
				return // our own shutdown closed the sockets
			default:
			}
			if p.departed.Load() {
				return // peer shut down cleanly
			}
			panic(fmt.Sprintf("transport: mesh peer %d disconnected unexpectedly: %v", p.rank, err))
		}
		buf = reusable(body)
		m.recvFrames.Add(1)
		if len(body) == 1 && body[0] == goodbyeByte {
			p.departed.Store(true)
			continue
		}
		if len(body) < 8 {
			panic(fmt.Sprintf("transport: mesh frame from rank %d too short (%d bytes)", p.rank, len(body)))
		}
		declared := int64(binary.LittleEndian.Uint64(body[:8]))
		var slots PlanSlots
		if sp := m.slots.Load(); sp != nil {
			slots = *sp
		}
		payload, err := decodePayload(body[8:], slots)
		if err != nil {
			panic(fmt.Sprintf("transport: mesh frame from rank %d: %v", p.rank, err))
		}
		if !m.box.put(MeshMsg{From: p.rank, To: m.rank, Bytes: declared, Payload: payload}) {
			m.dropped.Add(1)
		}
	}
}

// Name implements Mesh.
func (m *TCPMesh) Name() string { return "tcp-mesh" }

// Size implements Mesh.
func (m *TCPMesh) Size() int { return m.n }

// Rank returns the local rank this mesh value serves.
func (m *TCPMesh) Rank() int { return m.rank }

// Quiesce implements Mesh: it blocks until every accepted send has been
// flushed to its socket (or dropped against a broken peer). Delivery into
// the remote inbox cannot be observed from this process; the loopback
// facade, which holds both sides, waits for that too.
func (m *TCPMesh) Quiesce() { m.sendWG.wait() }

// Stats implements Mesh. Counters are this process's view: messages and
// declared bytes accepted for send, plus local drops (failed peers and
// frames arriving after the local endpoint closed).
func (m *TCPMesh) Stats() MeshStats {
	return MeshStats{Msgs: m.msgs.Load(), Bytes: m.bytes.Load(), Dropped: m.dropped.Load()}
}

// Endpoint implements Mesh. Only the local rank's endpoint exists in this
// process.
func (m *TCPMesh) Endpoint(rank int) Endpoint {
	if rank != m.rank {
		panic(fmt.Sprintf("transport: endpoint %d lives in another process (local rank %d)", rank, m.rank))
	}
	return &tcpEndpoint{mesh: m}
}

// Shutdown announces a clean departure to every live peer (goodbye
// frame), waits for outbound traffic to flush, then closes the
// connections and stops the I/O goroutines. Quiesce first if outbound
// traffic must land before you stop sending.
func (m *TCPMesh) Shutdown() {
	m.stop.Do(func() {
		for _, p := range m.peers {
			if p == nil || p.broken.Load() {
				continue
			}
			// Enqueue blocking: the writer is alive and draining until
			// close(m.done) below, so this cannot deadlock — and a dropped
			// goodbye would make survivors mistake us for a crashed peer.
			m.sendWG.add(1)
			p.out <- []byte{goodbyeByte}
		}
		m.sendWG.wait()
		close(m.done)
		for _, p := range m.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	})
	m.ioWG.Wait()
	m.box.close()
}

type tcpEndpoint struct {
	mesh *TCPMesh
}

func (e *tcpEndpoint) Rank() int { return e.mesh.rank }

func (e *tcpEndpoint) Send(to int, bytes int64, payload any) bool {
	m := e.mesh
	if to < 0 || to >= m.n {
		panic(fmt.Sprintf("transport: send to %d out of [0,%d)", to, m.n))
	}
	if to == m.rank {
		if !m.box.put(MeshMsg{From: m.rank, To: to, Bytes: bytes, Payload: payload}) {
			m.dropped.Add(1)
			return false
		}
		m.msgs.Add(1)
		m.bytes.Add(bytes)
		return true
	}
	p := m.peers[to]
	if p.broken.Load() {
		m.dropped.Add(1)
		return false
	}
	// Encode straight into a pooled frame (the writer returns it), and
	// recycle the payload itself: the encoding is the only copy this
	// process keeps.
	frame := encodeFrame(bytes, payload)
	ReleasePayload(payload)
	m.sendWG.add(1)
	select {
	case p.out <- frame:
	case <-m.done:
		m.sendWG.add(-1)
		m.dropped.Add(1)
		putBuf(frame)
		return false
	}
	m.msgs.Add(1)
	m.bytes.Add(bytes)
	return true
}

// encodeFrame encodes payload into a pooled frame after its 8-byte header,
// the declared size. The frame is taken at the declared size, which the
// engine declares as the encoded size (PayloadSize), so the payload is not
// sized a second time; a declared size short of the encoding costs the
// append a regrowth, never a different frame.
func encodeFrame(bytes int64, payload any) []byte {
	frame := getBuf(8 + int(bytes))
	frame = putU64(frame, uint64(bytes))
	return appendPayload(frame, payload)
}

func (e *tcpEndpoint) Recv() (MeshMsg, bool) { return e.mesh.box.get() }
func (e *tcpEndpoint) Close()                { e.mesh.box.close() }

// DecodePlansInto makes every later plan frame decode into the buffer slots
// names; nil restores fresh buffers. A plan frame that arrives before the
// call decodes into a fresh buffer.
func (e *tcpEndpoint) DecodePlansInto(slots PlanSlots) {
	if slots == nil {
		e.mesh.slots.Store(nil)
		return
	}
	e.mesh.slots.Store(&slots)
}

// LoopbackTCPMesh is the all-ranks facade over n TCPMesh instances wired
// together on 127.0.0.1 ephemeral ports: a Mesh whose every endpoint works,
// for single-process tests and benchmarks that should exercise real
// sockets, the codec, and the framing without forking worker processes.
type LoopbackTCPMesh struct {
	meshes []*TCPMesh
}

// NewLoopbackTCPMesh builds an n-rank TCP mesh entirely within this
// process.
func NewLoopbackTCPMesh(n int) (*LoopbackTCPMesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: mesh size %d", n)
	}
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}
	m := &LoopbackTCPMesh{meshes: make([]*TCPMesh, n)}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			mesh, err := NewTCPMesh(i, addrs, listeners[i])
			m.meshes[i] = mesh
			errs <- err
		}(i)
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		m.Shutdown()
		return nil, firstErr
	}
	return m, nil
}

// Name implements Mesh.
func (m *LoopbackTCPMesh) Name() string { return "tcp-mesh" }

// Size implements Mesh.
func (m *LoopbackTCPMesh) Size() int { return len(m.meshes) }

// Endpoint implements Mesh.
func (m *LoopbackTCPMesh) Endpoint(rank int) Endpoint {
	if rank < 0 || rank >= len(m.meshes) {
		panic(fmt.Sprintf("transport: endpoint %d out of [0,%d)", rank, len(m.meshes)))
	}
	return m.meshes[rank].Endpoint(rank)
}

// Stats implements Mesh, summing every rank's local view.
func (m *LoopbackTCPMesh) Stats() MeshStats {
	var st MeshStats
	for _, mm := range m.meshes {
		s := mm.Stats()
		st.Msgs += s.Msgs
		st.Bytes += s.Bytes
		st.Dropped += s.Dropped
	}
	return st
}

// Quiesce implements Mesh: because the facade holds both sides of every
// connection, it can wait for true global quiescence — all outbound frames
// flushed and every flushed frame read (delivered or dropped) on the
// receiving side.
func (m *LoopbackTCPMesh) Quiesce() {
	for _, mm := range m.meshes {
		mm.Quiesce()
	}
	// Flushed loopback frames are readable within microseconds; failed
	// flushes are accounted as drops, never as sent. A fabric that stays
	// unbalanced for this long is a protocol bug, and a loud failure beats
	// callers silently asserting over a half-quiesced mesh.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var sent, recv int64
		for _, mm := range m.meshes {
			sent += mm.sentFrames.Load()
			recv += mm.recvFrames.Load()
		}
		if recv >= sent {
			return
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("transport: loopback mesh failed to quiesce: %d frames flushed, %d read", sent, recv))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Shutdown tears down every rank's sockets.
func (m *LoopbackTCPMesh) Shutdown() {
	var wg sync.WaitGroup
	for _, mm := range m.meshes {
		if mm == nil {
			continue
		}
		wg.Add(1)
		go func(mm *TCPMesh) {
			defer wg.Done()
			mm.Shutdown()
		}(mm)
	}
	wg.Wait()
}
