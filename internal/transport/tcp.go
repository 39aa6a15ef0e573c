package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/embed"
)

// This file is the trainer↔embedding-server wire: TCPLink, a pipelined RPC
// client implementing Store over one TCP connection, and ServeEmbed,
// the accept loop that exposes an embed.Server to it. Framing and number
// encoding come from codec.go; requests are tagged with a sequence number
// so many calls can be in flight at once (the LRPP dispatcher overlaps up
// to ℒ prefetches with write-backs on the same link), and a writer
// goroutine coalesces queued requests into one buffered flush.

// linkMagic opens every link connection: "BGL" + protocol version. Version
// 2 is the one control layout (putCtl, putCtlResult); version 3 retires the
// checkpoint op and the result's byte field; version 4 retires the
// end-recovery op.
const linkMagic uint32 = 'B'<<24 | 'G'<<16 | 'L'<<8 | 4

// Link protocol ops (first body byte of a link frame). opFetch and opWrite
// carry the data path in layouts of their own; every other request op is a
// control op, the CtlOp of the same value, whose body is putCtl's layout and
// whose result is putCtlResult's. New ops append at the end: existing op
// values are wire constants shared across process generations. A retired
// op keeps its slot as a reserved `_` entry and is never reused; a server
// closes a connection that sends one.
const (
	opFetch byte = 0x10 + iota
	opWrite
	_ // reserved: the retired whole-partition fingerprint (now opFingerprintPartIn)
	_ // reserved: the retired whole-server Checkpoint (gob state; now Certify's digests)
	opShutdown
	opResp // server → client: u64 seq, then the op-specific result
	_      // reserved: the retired whole-partition export (now opExportPartIn)
	opWriteRecovery
	_         // reserved: the retired end-recovery (a live write now marks its row)
	opRespErr // server → client: u64 seq, kind byte, then the error payload
	opBeginRecovery
	opInstallRouting
	opAnnounceEpoch
	opExportPartIn
	opFingerprintPartIn
	opRetainOwned
)

// opRespErr kinds.
const (
	respErrGeneric byte = iota
	// respErrStale is the routing fence: u64 epoch, then the server's
	// installed routing table in encodeRouting form.
	respErrStale
)

// maxFrame bounds a single link or mesh frame; a length prefix beyond it is
// treated as a corrupt stream rather than an allocation request.
const maxFrame = 1 << 30

// frameWriter buffers length-prefixed frames onto one connection. The
// header scratch lives with it: a stack header handed to the writer
// interface would escape, one allocation per frame.
type frameWriter struct {
	*bufio.Writer
	hdr [4]byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{Writer: bufio.NewWriterSize(w, 1<<16)}
}

// writeFrame writes one length-prefixed frame. body is free for reuse once
// it returns: bufio has copied it or written it through.
func (fw *frameWriter) writeFrame(body []byte) error {
	binary.LittleEndian.PutUint32(fw.hdr[:], uint32(len(body)))
	if _, err := fw.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.Write(body)
	return err
}

// frameChunk is how far a frame body's allocation may run ahead of the
// bytes that have arrived for it.
const frameChunk = 64 << 10

// readFrame reads one length-prefixed frame into buf's storage, which the
// caller reuses across frames (see readBody).
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	return readBody(r, n, buf)
}

// readFrameLen reads a frame's length prefix. It peeks into the reader's
// own buffer: a header array handed to an io.Reader would escape, one
// allocation per frame.
func readFrameLen(r *bufio.Reader) (int, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	r.Discard(4)
	if n > maxFrame {
		return 0, fmt.Errorf("transport: frame length %d exceeds limit", n)
	}
	return int(n), nil
}

// readBody reads an n-byte frame body into buf when it fits. Otherwise the
// body grows as its bytes arrive — doubling from frameChunk up to the pool
// class that holds n — so a length prefix alone never buys more than
// frameChunk of memory from a peer (maxFrame stays the hard limit), and a
// grown buffer still pools by its class.
func readBody(r *bufio.Reader, n int, buf []byte) ([]byte, error) {
	body := buf[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(classCap(n), max(frameChunk, 2*cap(body))))
			copy(grown, body)
			body = grown
		}
		k, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+k]
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// TCPLink is a Store over one TCP connection to an embedding-server
// process. Calls are pipelined: each request carries a sequence number, a
// writer goroutine coalesces queued requests into single buffered flushes,
// and a reader goroutine demultiplexes responses to their callers — so
// concurrent Fetch (prefetch) and Write (write-back maintenance) calls
// overlap on the wire exactly as they do on the in-process transport.
//
// TCPLink is the one Link that can genuinely fail, so both faces of the
// contract matter here: the errorless Store methods panic on a broken
// connection (a worker with an unreplicated tier cannot make progress, so
// dying loudly is the correct degradation), while TryFetch, TryWrite and
// Control return the link error — or a malformed response, attributed to
// the peer — instead: the path a replicated ShardedStore uses to retry,
// declare the server dead, and fail over to a ring replica.
type TCPLink struct {
	conn  net.Conn
	dim   int
	arena *RowArena

	reqCh chan linkReq

	mu      sync.Mutex
	pending map[uint64]chan []byte // seq → response body (after the seq field)
	seq     uint64
	broken  error

	wg sync.WaitGroup

	fetches, writes            atomic.Int64
	rowsFetched, rowsWritten   atomic.Int64
	bytesFetched, bytesWritten atomic.Int64
}

type linkReq struct {
	body []byte
}

// DialTCPLink connects to an embedding server at addr, retrying for up to
// timeout (processes of one run start in arbitrary order).
func DialTCPLink(addr string, timeout time.Duration) (*TCPLink, error) {
	conn, err := dialRetry(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial embedding server %s: %w", addr, err)
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], linkMagic)
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: link handshake: %w", err)
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: link handshake: %w", err)
	}
	if m := binary.LittleEndian.Uint32(ack[:4]); m != linkMagic {
		conn.Close()
		return nil, fmt.Errorf("transport: link handshake: magic %#x from %s", m, addr)
	}
	dim := int(binary.LittleEndian.Uint32(ack[4:]))
	if dim <= 0 {
		conn.Close()
		return nil, fmt.Errorf("transport: link handshake: server at %s declared dim %d", addr, dim)
	}
	t := &TCPLink{
		conn:    conn,
		dim:     dim,
		arena:   Rows(dim),
		reqCh:   make(chan linkReq, 64),
		pending: make(map[uint64]chan []byte),
	}
	t.wg.Add(2)
	go t.writeLoop()
	go t.readLoop()
	return t, nil
}

// dialRetry dials addr until it succeeds or timeout elapses.
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// writeLoop drains the request queue into the socket, flushing only when
// the queue goes momentarily empty — back-to-back requests share one flush.
// On a write error it fails the pending callers and keeps draining the
// queue until Close, so a caller mid-enqueue can never block forever on a
// dead link (its response channel is already closed, so its call fails with
// the link error — an error on the Try path, a panic on the errorless one).
func (t *TCPLink) writeLoop() {
	defer t.wg.Done()
	fail := func(err error) {
		t.failPending(err)
		for range t.reqCh {
		}
	}
	bw := newFrameWriter(t.conn)
	// write hands the request's pooled buffer back once it is written.
	write := func(req linkReq) error {
		err := bw.writeFrame(req.body)
		putBuf(req.body)
		return err
	}
	for req := range t.reqCh {
		if err := write(req); err != nil {
			fail(err)
			return
		}
		for {
			select {
			case req, ok := <-t.reqCh:
				if !ok {
					bw.Flush()
					return
				}
				if err := write(req); err != nil {
					fail(err)
					return
				}
				continue
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			fail(err)
			return
		}
	}
	bw.Flush()
}

// readLoop demultiplexes responses to the callers waiting on them. Each
// response lands in a pooled frame buffer the caller owns from then on (the
// hot ops return it once decoded; see roundTrip).
func (t *TCPLink) readLoop() {
	defer t.wg.Done()
	br := bufio.NewReaderSize(t.conn, 1<<16)
	for {
		n, err := readFrameLen(br)
		var body []byte
		if err == nil {
			body, err = readBody(br, n, pooledBuf(n))
		}
		if err != nil {
			t.failPending(err)
			return
		}
		if len(body) < 9 || (body[0] != opResp && body[0] != opRespErr) {
			t.failPending(fmt.Errorf("transport: malformed link response (%d bytes)", len(body)))
			return
		}
		seq := binary.LittleEndian.Uint64(body[1:9])
		t.mu.Lock()
		ch := t.pending[seq]
		delete(t.pending, seq)
		t.mu.Unlock()
		if ch != nil {
			// The full frame, op byte included: callErr tells a result from a
			// per-request error (opRespErr — the routing fence) by it.
			ch <- body
		}
	}
}

// failPending marks the link broken, wakes every in-flight caller, and
// closes the connection. The close matters for liveness: on a half-open
// socket the writer goroutine can be wedged inside conn.Write while the
// reader already declared the link dead — without the close it would never
// return to drain the request queue, and a caller mid-enqueue could block
// forever on a full reqCh.
func (t *TCPLink) failPending(err error) {
	t.mu.Lock()
	if t.broken == nil {
		t.broken = err
	}
	for seq, ch := range t.pending {
		close(ch)
		delete(t.pending, seq)
	}
	t.mu.Unlock()
	t.conn.Close()
}

// linkErr wraps the broken-link cause with the peer's address so a failover
// (or crash) is attributable to a server.
func (t *TCPLink) linkErr(err error) error {
	return fmt.Errorf("transport: tcp link to %s broken: %w", t.conn.RemoteAddr(), err)
}

// badResp attributes a malformed response to the peer that sent it. The
// link survives (framing is intact), but the op fails: the tier retries and
// condemns a server that keeps answering garbage.
func (t *TCPLink) badResp(format string, args ...any) error {
	return fmt.Errorf("transport: tcp link to %s: malformed %s", t.conn.RemoteAddr(), fmt.Sprintf(format, args...))
}

// roundTrip sends one request (op, seq, then body's bytes) and blocks for
// the whole response frame (op, seq, then the result at frame[9:]),
// returning an error once the link is broken. The request is encoded into
// a pooled buffer presized for size body bytes, which the writer returns
// once written; the response is a pooled buffer the caller hands back with
// putBuf once it has decoded everything it keeps.
//
// The pending registration and the enqueue race the reader's failPending:
// a request registered before the failure is woken by it (its channel is
// closed before the writer drains the queue), but a request that would
// *enqueue after* the failure must not slip in behind the drain. The broken
// flag is therefore re-checked under the lock after the frame is built —
// enqueue-after-fail deterministically errors out without touching the
// queue — and a failure that lands between that check and the channel send
// is still safe: failPending has already closed this caller's pending
// channel (registered above), so the receive below returns immediately,
// and the writer's drain loop consumes the stale frame.
func (t *TCPLink) roundTrip(op byte, size int, body func(b []byte) []byte) ([]byte, error) {
	t.mu.Lock()
	if err := t.broken; err != nil {
		t.mu.Unlock()
		return nil, t.linkErr(err)
	}
	seq := t.seq
	t.seq++
	ch := make(chan []byte, 1)
	t.pending[seq] = ch
	t.mu.Unlock()

	b := getBuf(9 + size)
	b = append(b, op)
	b = putU64(b, seq)
	if body != nil {
		b = body(b)
	}
	t.mu.Lock()
	if err := t.broken; err != nil {
		delete(t.pending, seq) // failPending may already have closed+removed it
		t.mu.Unlock()
		putBuf(b)
		return nil, t.linkErr(err)
	}
	t.mu.Unlock()
	t.reqCh <- linkReq{body: b}
	resp, ok := <-ch
	if !ok {
		t.mu.Lock()
		err := t.broken
		t.mu.Unlock()
		return nil, t.linkErr(err)
	}
	if resp[0] == opRespErr {
		return nil, decodeLinkErr(op, resp[9:])
	}
	return resp, nil
}

// decodeLinkErr parses the opRespErr payload answering a request of op: a
// per-request failure the link survives (unlike a broken connection). The
// stale-routing kind reconstructs the server's fence rejection, table
// included; the generic kind answering a control op is the dispatcher's
// refusal, its text returned as it stands, so it reads the same on every
// fabric. Anything else is malformed: a server refuses no data op.
func decodeLinkErr(op byte, pay []byte) error {
	switch {
	case len(pay) > 0 && pay[0] == respErrStale:
		r := &wireReader{b: pay[1:]}
		epoch := r.u64()
		if r.err != nil {
			return fmt.Errorf("transport: malformed stale-routing response")
		}
		se := &StaleRoutingError{Server: -1, Epoch: epoch}
		if rt := r.routing(); r.err == nil && rt.validate() == nil {
			se.Table = rt
		}
		return se
	case len(pay) > 0 && pay[0] == respErrGeneric && op != opFetch && op != opWrite:
		return &RefusedError{Reason: string(pay[1:])}
	}
	return fmt.Errorf("transport: malformed link error response")
}

// Name implements Store.
func (t *TCPLink) Name() string { return "tcp" }

// Dim implements Store (the width the server declared at handshake).
func (t *TCPLink) Dim() int { return t.dim }

// Fetch implements Store. The response matrix is decoded straight into
// pooled arena rows, so the decode allocates nothing once the pool is warm.
func (t *TCPLink) Fetch(ids []uint64) [][]float32 {
	rows, err := t.TryFetch(ids)
	if err != nil {
		panic(err.Error())
	}
	return rows
}

// TryFetch implements Link: Fetch that reports a broken link or a
// malformed response instead of panicking.
func (t *TCPLink) TryFetch(ids []uint64) ([][]float32, error) {
	frame, err := t.roundTrip(opFetch, 4+8*len(ids), func(b []byte) []byte { return putU64s(b, ids) })
	if err != nil {
		return nil, err
	}
	rows, err := t.fetchRows(frame[9:], len(ids))
	putBuf(frame)
	if err != nil {
		return nil, err
	}
	t.fetches.Add(1)
	t.rowsFetched.Add(int64(len(ids)))
	t.bytesFetched.Add(payloadBytes(len(ids), t.dim))
	return rows, nil
}

// fetchRows decodes a fetch result for n ids into pooled arena rows.
func (t *TCPLink) fetchRows(resp []byte, n int) ([][]float32, error) {
	r := &wireReader{b: resp}
	nf := r.count(4)
	if r.err != nil || nf != n*t.dim {
		return nil, t.badResp("fetch response: %d ids, %d floats", n, nf)
	}
	reg := r.take(nf, 4)
	rows := GetRowSlice(n)
	t.arena.GetN(rows)
	for i, row := range rows {
		off := i * t.dim * 4
		for k := range row {
			row[k] = math.Float32frombits(binary.LittleEndian.Uint32(reg[off+4*k:]))
		}
	}
	return rows, nil
}

// Write implements Store. It returns only after the server applied the
// rows: the LRPP consistency window needs iteration x−ℒ's write-backs
// durably on the servers before iteration x's prefetch is issued, so the
// ack round trip is part of the contract, not overhead. (Under replication
// the durability contract becomes "acked by every live replica"; the
// replicated tier client issues one such acked write per live replica.)
func (t *TCPLink) Write(ids []uint64, rows [][]float32) {
	if err := t.TryWrite(ids, rows); err != nil {
		panic(err.Error())
	}
}

// TryWrite implements Link: Write that reports a broken link.
func (t *TCPLink) TryWrite(ids []uint64, rows [][]float32) error {
	if len(ids) != len(rows) {
		panic("transport: Write ids/rows length mismatch")
	}
	frame, err := t.roundTrip(opWrite, 4+len(ids)*(8+4+4*t.dim), func(b []byte) []byte {
		b = putU64s(b, ids)
		for _, row := range rows {
			b = putF32s(b, row)
		}
		return b
	})
	if err != nil {
		return err
	}
	putBuf(frame)
	t.writes.Add(1)
	t.rowsWritten.Add(int64(len(ids)))
	t.bytesWritten.Add(payloadBytes(len(ids), t.dim))
	return nil
}

// Fingerprint and Shutdown implement Store through Control. Fingerprint is
// the cheap remote state digest; Shutdown asks the serving process to stop
// accepting and return from ServeEmbed once the ack is on the wire.
func (t *TCPLink) Fingerprint() uint64 {
	return mustControl(t, &Ctl{Op: CtlFingerprintPartIn, Of: 1}).N
}
func (t *TCPLink) Shutdown() { mustControl(t, &Ctl{Op: CtlShutdown}) }

// Control implements Link: c travels in putCtl's layout under its own
// opcode, and the result comes back in putCtlResult's. A request the
// dispatcher would refuse is refused here with the same error, before it
// is sent: the encoder carries requests, not repairs.
func (t *TCPLink) Control(c *Ctl) (CtlResult, error) {
	if err := c.check(t.dim); err != nil {
		return CtlResult{}, err
	}
	frame, err := t.roundTrip(byte(c.Op), 0, func(b []byte) []byte { return putCtl(b, c) })
	if err != nil {
		return CtlResult{}, err
	}
	defer putBuf(frame)
	return t.ctlResult(frame[9:])
}

// ctlResult decodes a control result (putCtlResult's layout). Off the hot
// path, so ids and rows are plainly allocated, not pooled, and nothing
// aliases the response frame.
func (t *TCPLink) ctlResult(resp []byte) (CtlResult, error) {
	r := &wireReader{b: resp}
	res := CtlResult{N: r.u64()}
	res.IDs = r.u64s()
	n := r.count(4)
	if r.err != nil || n != len(res.IDs)*t.dim || len(r.b) != 4*n {
		return CtlResult{}, t.badResp("control response: %d ids, %d floats in %d bytes", len(res.IDs), n, len(resp))
	}
	if n > 0 {
		flat := make([]float32, n)
		fillRow(flat, r.take(n, 4))
		res.Rows = make([][]float32, len(res.IDs))
		for i := range res.Rows {
			res.Rows[i] = flat[i*t.dim : (i+1)*t.dim : (i+1)*t.dim]
		}
	}
	return res, nil
}

// ServerStats implements Store (a one-server tier).
func (t *TCPLink) ServerStats() []Stats { return []Stats{t.Stats()} }

// Close tears the connection down. In-flight calls panic, so quiesce
// callers first.
func (t *TCPLink) Close() {
	close(t.reqCh)
	t.conn.Close()
	t.wg.Wait()
}

// Stats implements Store.
func (t *TCPLink) Stats() Stats {
	return Stats{
		Fetches:      t.fetches.Load(),
		Writes:       t.writes.Load(),
		RowsFetched:  t.rowsFetched.Load(),
		RowsWritten:  t.rowsWritten.Load(),
		BytesFetched: t.bytesFetched.Load(),
		BytesWritten: t.bytesWritten.Load(),
	}
}

// ServeEmbed serves srv over lis: the embedding-server process's main loop.
// Each accepted connection gets a handler goroutine that answers fetch and
// write requests, and every control op through the shared dispatcher, in
// order (per-connection FIFO keeps the write-ack contract trivially true;
// cross-connection parallelism comes from each trainer holding its own
// link, and shard parallelism from embed.Server itself). ServeEmbed returns
// after a client sends the shutdown op, or with the first accept error
// after lis is closed externally.
func ServeEmbed(lis net.Listener, srv *embed.Server) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		done  = make(chan struct{})
		once  sync.Once
	)
	shutdown := func() {
		once.Do(func() {
			close(done)
			lis.Close()
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for {
		conn, err := lis.Accept()
		if err != nil {
			wg.Wait()
			select {
			case <-done:
				return nil // clean shutdown requested by a client
			default:
				return err
			}
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				conn.Close()
			}()
			serveEmbedConn(conn, srv, shutdown)
		}(conn)
	}
}

// linkErrResp appends to b the opRespErr frame for a request the link
// survives: a routing fence rejection (the server's installed epoch, then
// its installed table so the client can adopt it in one round trip), or a
// control request the dispatcher refused (its error text).
func linkErrResp(b []byte, seq uint64, se *embed.StaleRouting, err error) []byte {
	b = append(b, opRespErr)
	b = putU64(b, seq)
	if se == nil {
		return append(append(b, respErrGeneric), err.Error()...)
	}
	b = append(b, respErrStale)
	b = putU64(b, se.Epoch)
	if rt, ok := se.Table.(*RoutingTable); ok {
		b = encodeRouting(b, rt)
	}
	return b
}

// serveEmbedConn answers one client's requests until EOF or shutdown.
func serveEmbedConn(conn net.Conn, srv *embed.Server, shutdown func()) {
	var hello [4]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hello[:]) != linkMagic {
		return
	}
	bw := newFrameWriter(conn)
	var ack [8]byte
	binary.LittleEndian.PutUint32(ack[:4], linkMagic)
	binary.LittleEndian.PutUint32(ack[4:], uint32(srv.Dim))
	if _, err := bw.Write(ack[:]); err != nil {
		return
	}
	if bw.Flush() != nil {
		return
	}

	br := bufio.NewReaderSize(conn, 1<<16)
	// announced is this connection's declared routing epoch (see
	// embed.Server.RoutedFetchInto): data ops are fenced against the
	// server's installed epoch, and an install or announce op on this
	// connection moves it. Per-connection, not per-server — each tier
	// client adopts a new table at its own pace.
	var announced atomic.Uint64
	// One request buffer and one response buffer serve the connection's
	// whole life: every op copies what it keeps out of the request, and
	// the response is on the wire before the next request is read. Every
	// control request decodes into one Ctl, and the id list of a fetch or a
	// write into that Ctl's id array too: RoutedFetchInto, RoutedWrite and
	// WriteRecovery keep no id or row slice — they read them, or copy them
	// into the tables, before returning. Only an installed table is kept,
	// and it decodes fresh.
	var req, out []byte
	var ctl ctlBuf
	for {
		body, err := readFrame(br, req)
		if err != nil {
			return
		}
		req = reusable(body)
		if len(body) < 9 {
			return
		}
		op := body[0]
		seq := binary.LittleEndian.Uint64(body[1:9])
		r := &wireReader{b: body[9:]}

		resp := append(out, opResp)
		resp = putU64(resp, seq)
		switch op {
		case opFetch:
			ids := r.u64sInto(&ctl.ids)
			if r.err != nil {
				return
			}
			// Serve out of the arena and encode row by row behind a single
			// matrix count — no flat staging copy, and the rows go straight
			// back to the pool once encoded.
			rows := GetRowSlice(len(ids))
			arena := Rows(srv.Dim)
			arena.GetN(rows)
			if se := srv.RoutedFetchInto(announced.Load(), ids, rows); se != nil {
				arena.PutN(rows)
				PutRowSlice(rows)
				resp = linkErrResp(out, seq, se, nil)
				break
			}
			resp = slices.Grow(resp, 4+4*len(ids)*srv.Dim)
			resp = putU32(resp, uint32(len(ids)*srv.Dim))
			for _, row := range rows {
				resp = putF32sRaw(resp, row)
			}
			arena.PutN(rows)
			PutRowSlice(rows)
		case opWrite:
			ids := r.u64sInto(&ctl.ids)
			if r.err != nil {
				return
			}
			rows := GetRowSlice(len(ids))
			arena := Rows(srv.Dim)
			arena.GetN(rows)
			ok := true
			for i := range rows {
				if !r.f32sInto(rows[i]) {
					ok = false
					break
				}
			}
			if !ok || r.err != nil {
				arena.PutN(rows)
				PutRowSlice(rows)
				return
			}
			se := srv.RoutedWrite(announced.Load(), ids, rows)
			arena.PutN(rows)
			PutRowSlice(rows)
			if se != nil {
				resp = linkErrResp(out, seq, se, nil)
			}
		default:
			// Every control op decodes and dispatches alike; any other
			// opcode, a reserved one included, closes the connection.
			if ctlNames[op] == "" {
				return
			}
			c := r.ctl(&ctl, CtlOp(op))
			if r.err != nil {
				return
			}
			res, err := control(srv, c, &announced)
			if err != nil {
				resp = linkErrResp(out, seq, nil, err)
				break
			}
			resp = putCtlResult(resp, &res)
		}
		err = bw.writeFrame(resp)
		if err == nil {
			err = bw.Flush()
		}
		if op == opShutdown {
			shutdown()
			return
		}
		if err != nil {
			return
		}
		out = reusable(resp)
		ctl.trim()
	}
}
