package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bagpipe/internal/embed"
)

// startEmbedServer serves srv on a loopback listener and returns its
// address plus a join function for the serve loop.
func startEmbedServer(t *testing.T, srv *embed.Server) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ServeEmbed(lis, srv) }()
	return lis.Addr().String(), func() {
		if err := <-done; err != nil {
			t.Errorf("ServeEmbed: %v", err)
		}
	}
}

// TestTCPLinkRoundTrip: fetch/write over a real socket mutate the server
// exactly like the in-process transport, and the control ops (fingerprint,
// the certificate, shutdown) work.
func TestTCPLinkRoundTrip(t *testing.T) {
	srv := embed.NewServer(2, 4, 3, 0.1)
	ref := embed.NewServer(2, 4, 3, 0.1)
	addr, join := startEmbedServer(t, srv)

	tr, err := DialTCPLink(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dim() != 4 || tr.Name() != "tcp" {
		t.Fatalf("handshake metadata: dim %d name %q", tr.Dim(), tr.Name())
	}

	ids := []uint64{1, 2, 3}
	rows := tr.Fetch(ids)
	refRows := NewInProcess(ref).Fetch(ids)
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != refRows[i][j] {
				t.Fatalf("fetched row %d differs from in-process fetch", i)
			}
		}
		rows[i][0] = float32(i) + 42
		refRows[i][0] = float32(i) + 42
	}
	tr.Write(ids, rows)
	NewInProcess(ref).Write(ids, refRows)
	if d := embed.Diff(ref, srv); len(d) != 0 {
		t.Fatalf("tcp link diverged from in-process at ids %v", d)
	}
	if fp := tr.Fingerprint(); fp != ref.Fingerprint() {
		t.Fatalf("remote fingerprint %x != local %x", fp, ref.Fingerprint())
	}
	if cert, err := Certify(tr, ref); err != nil || len(cert.Differ) != 0 || cert.Holders != 1 || cert.Exported != 0 {
		t.Fatalf("certificate %+v, err %v: want one holder digested, nothing exported", cert, err)
	}

	st := tr.Stats()
	wantBytes := int64(3 * (8 + 4*4))
	if st.Fetches != 1 || st.RowsFetched != 3 || st.BytesFetched != wantBytes {
		t.Fatalf("fetch stats %+v", st)
	}
	if st.Writes != 1 || st.RowsWritten != 3 || st.BytesWritten != wantBytes {
		t.Fatalf("write stats %+v", st)
	}

	tr.Shutdown()
	tr.Close()
	join()
}

// TestTCPMeshCleanDeparture: a peer that shuts its mesh down announces a
// clean departure, so survivors keep running (and can still exchange
// traffic among themselves) instead of dying on the closed connection —
// the normal staggered-teardown path of a distributed run, where the
// crashed-peer case panics instead.
func TestTCPMeshCleanDeparture(t *testing.T) {
	lb, err := NewLoopbackTCPMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := lb.Endpoint(0), lb.Endpoint(1)
	if !a.Send(1, 10, RawMsg("pre")) {
		t.Fatal("send refused")
	}
	if msg, ok := b.Recv(); !ok || string(msg.Payload.(RawMsg)) != "pre" {
		t.Fatalf("recv %+v ok=%v", msg, ok)
	}
	// Rank 2 departs first, like a worker that finished early.
	lb.meshes[2].Shutdown()
	// Give the goodbyes time to land, then the survivors keep talking.
	time.Sleep(50 * time.Millisecond)
	if !a.Send(1, 10, RawMsg("post")) {
		t.Fatal("survivor send refused after peer departure")
	}
	if msg, ok := b.Recv(); !ok || string(msg.Payload.(RawMsg)) != "post" {
		t.Fatalf("survivors lost traffic after peer departure: %+v ok=%v", msg, ok)
	}
	// Sends to the departed rank are dropped, not fatal.
	a.Send(2, 10, RawMsg("late"))
	lb.meshes[0].Shutdown()
	lb.meshes[1].Shutdown()
}

// TestTCPMeshToleratesStrayConnections: a non-peer connection hitting a
// trainer's mesh port (port scanner, health probe, aborted dial) is
// dropped and the accept retried — it must not abort mesh construction.
func TestTCPMeshToleratesStrayConnections(t *testing.T) {
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{l0.Addr().String(), l1.Addr().String()}

	type built struct {
		m   *TCPMesh
		err error
	}
	m0ch := make(chan built, 1)
	go func() {
		m, err := NewTCPMesh(0, addrs, l0)
		m0ch <- built{m, err}
	}()
	// The stray connects (and sends garbage) before the real peer dials.
	stray, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	stray.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
	stray.Close()

	m1, err := NewTCPMesh(1, addrs, l1)
	if err != nil {
		t.Fatalf("mesh construction aborted by stray connection: %v", err)
	}
	b0 := <-m0ch
	if b0.err != nil {
		t.Fatalf("rank 0 aborted by stray connection: %v", b0.err)
	}
	if !m1.Endpoint(1).Send(0, 5, RawMsg("hi")) {
		t.Fatal("send refused")
	}
	if msg, ok := b0.m.Endpoint(0).Recv(); !ok || string(msg.Payload.(RawMsg)) != "hi" {
		t.Fatalf("recv %+v ok=%v", msg, ok)
	}
	b0.m.Shutdown()
	m1.Shutdown()
}

// TestTCPMeshRefusesProtocol4: a peer of mesh protocol 4, whose all-gather
// chunks travel raw, is refused at the handshake from either side. An
// acceptor drops its hello without an ack, and still meshes with the real
// peer; a dialer refuses its ack, and mesh construction fails naming the
// magic.
func TestTCPMeshRefusesProtocol4(t *testing.T) {
	v4 := meshMagic&^0xff | 4
	hello := func(magic uint32, rank int) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, magic), uint32(rank))
	}

	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{l0.Addr().String(), l1.Addr().String()}
	type built struct {
		m   *TCPMesh
		err error
	}
	m0ch := make(chan built, 1)
	go func() {
		m, err := NewTCPMesh(0, addrs, l0)
		m0ch <- built{m, err}
	}()
	old, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	old.Write(hello(v4, 1))
	old.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := io.ReadFull(old, make([]byte, 8)); err == nil {
		t.Fatalf("a protocol-4 hello was acked (%d bytes)", n)
	}
	old.Close()
	m1, err := NewTCPMesh(1, addrs, l1)
	if err != nil {
		t.Fatal(err)
	}
	b0 := <-m0ch
	if b0.err != nil {
		t.Fatalf("rank 0 failed after refusing a protocol-4 hello: %v", b0.err)
	}
	b0.m.Shutdown()
	m1.Shutdown()

	// A protocol-4 acceptor at rank 0's address.
	lold, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lold.Close()
	go func() {
		conn, err := lold.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := io.ReadFull(conn, make([]byte, 8)); err == nil {
			conn.Write(hello(v4, 0))
			io.ReadFull(conn, make([]byte, 1)) // until the dialer hangs up
		}
	}()
	_, err = NewTCPMesh(1, []string{lold.Addr().String(), "127.0.0.1:0"}, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("magic %#x", v4)) {
		t.Fatalf("mesh construction against a protocol-4 peer: %v, want a refusal naming magic %#x", err, v4)
	}
}

// TestTCPLinkPipelined drives one link from many goroutines at once — the
// LRPP dispatcher pattern of ℒ overlapped prefetches plus concurrent
// write-backs — and checks the end state and accounting stay exact.
func TestTCPLinkPipelined(t *testing.T) {
	const workers = 8
	srv := embed.NewServer(2, 4, 9, 0.1)
	ref := embed.NewServer(2, 4, 9, 0.1)
	addr, join := startEmbedServer(t, srv)
	tr, err := DialTCPLink(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ids := []uint64{uint64(p), uint64(p + workers), uint64(p + 2*workers)}
			rows := tr.Fetch(ids)
			for _, r := range rows {
				r[0] += float32(p + 1)
			}
			tr.Write(ids, rows)
		}(p)
	}
	wg.Wait()

	for p := 0; p < workers; p++ {
		ids := []uint64{uint64(p), uint64(p + workers), uint64(p + 2*workers)}
		rows := ref.Fetch(ids)
		for _, r := range rows {
			r[0] += float32(p + 1)
		}
		ref.Write(ids, rows)
	}
	if d := embed.Diff(ref, srv); len(d) != 0 {
		t.Fatalf("pipelined tcp link diverged from serial reference at %v", d)
	}
	st := tr.Stats()
	if want := int64(workers * 3); st.RowsFetched != want || st.RowsWritten != want {
		t.Fatalf("row accounting lost under concurrency: %+v", st)
	}
	tr.Shutdown()
	tr.Close()
	join()
}

// TestTCPLinkEnqueueAfterFailErrors is the regression test for the
// call-vs-fail race: once failPending has drained the request queue, a call
// that already passed the broken check must NOT enqueue its frame (it would
// strand forever with its pending channel deleted) — it must come back as a
// link error. After the injected failure every fallible call errors
// immediately, the queue stays empty, and the errorless face panics with
// the same attributed message.
func TestTCPLinkEnqueueAfterFailErrors(t *testing.T) {
	srv := embed.NewServer(2, 4, 3, 0.1)
	addr, join := startEmbedServer(t, srv)
	link, err := DialTCPLink(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.TryFetch([]uint64{1, 2}); err != nil {
		t.Fatalf("sanity fetch: %v", err)
	}

	link.failPending(errors.New("injected failure"))

	done := make(chan error, 1)
	go func() {
		_, err := link.TryFetch([]uint64{3})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("TryFetch on a failed link returned nil error")
		}
		if !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("link error lost its cause: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TryFetch on a failed link hung — the request was enqueued behind the drain")
	}
	if n := len(link.reqCh); n != 0 {
		t.Fatalf("%d frames enqueued after failure", n)
	}
	if err := link.TryWrite([]uint64{1}, [][]float32{{1, 2, 3, 4}}); err == nil {
		t.Fatal("TryWrite on a failed link returned nil error")
	}
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("errorless Fetch on a failed link did not panic")
			}
			if !strings.Contains(fmt.Sprint(p), "injected failure") {
				t.Fatalf("errorless panic lost the cause: %v", p)
			}
		}()
		link.Fetch([]uint64{4})
	}()
	link.Close()

	// The server side is still healthy (we failed the client half only);
	// shut it down over a fresh link so the serve loop joins cleanly.
	ctl, err := DialTCPLink(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	ctl.Close()
	join()
}

// killableListener records accepted connections so Kill can sever a running
// embed server the way a machine loss does: listener plus every live
// connection closed under the clients' feet.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (k *killableListener) Accept() (net.Conn, error) {
	c, err := k.Listener.Accept()
	if err == nil {
		k.mu.Lock()
		k.conns = append(k.conns, c)
		k.mu.Unlock()
	}
	return c, err
}

func (k *killableListener) Kill() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.Listener.Close()
	for _, c := range k.conns {
		c.Close()
	}
}

// TestShardedStoreTCPServerKillFailover is the real-socket half of the
// server-death conformance leg: a 3-server tier over genuine TCPLinks,
// replication factor 2, one server killed mid-traffic. The tier must retry,
// declare the server dead, reroute partition 1 to its replica, finish the
// request stream, and certify the surviving state against the S=1
// reference — fingerprint over the wire and merged in-memory state.
func TestShardedStoreTCPServerKillFailover(t *testing.T) {
	const S, R = 3, 2
	tier := testTier(S)
	children := make([]Store, S)
	links := make([]*TCPLink, S)
	serveDone := make([]chan error, S)
	var killable *killableListener
	for i, srv := range tier {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var serveLis net.Listener = lis
		if i == 1 {
			killable = &killableListener{Listener: lis}
			serveLis = killable
		}
		done := make(chan error, 1)
		serveDone[i] = done
		go func(lis net.Listener, srv *embed.Server) { done <- ServeEmbed(lis, srv) }(serveLis, srv)
		if links[i], err = DialTCPLink(lis.Addr().String(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		children[i] = links[i]
	}
	st := NewTier(children, TierOptions{Replicate: R, Retries: 2, Backoff: time.Millisecond})
	ref := embed.NewServer(3, 4, 11, 0.1)
	refStore := NewInProcess(ref)

	stamp := float32(0)
	step := func(ids []uint64) {
		t.Helper()
		stamp++
		rows, refRows := st.Fetch(ids), refStore.Fetch(ids)
		for i := range rows {
			for j := range rows[i] {
				if rows[i][j] != refRows[i][j] {
					t.Fatalf("id %d col %d: tier %v != reference %v", ids[i], j, rows[i][j], refRows[i][j])
				}
			}
			rows[i][0], refRows[i][0] = stamp, stamp
		}
		st.Write(ids, rows)
		refStore.Write(ids, refRows)
	}

	step([]uint64{0, 1, 2, 3, 4, 5, 13, 16})
	step([]uint64{1, 7, 10, 12})
	killable.Kill() // chaos: server 1's machine disappears
	step([]uint64{0, 1, 2, 6, 7, 9, 13})
	step([]uint64{4, 10, 19, 22, 25})

	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}
	if h := st.TierHealth(); h.Failovers == 0 {
		t.Fatalf("no failovers counted after the kill: %+v", h)
	}
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("surviving tier fingerprint %x != reference %x", fp, want)
	}
	deadSet := []bool{false, true, false}
	merged, err := embed.MergeTierReplicated(tier, R, deadSet)
	if err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(ref, merged); len(d) != 0 {
		t.Fatalf("surviving merge differs from reference at %v", d)
	}
	if cert, err := Certify(st, ref); err != nil || len(cert.Differ) != 0 {
		t.Fatalf("surviving tier certificate %+v, err %v", cert, err)
	}

	st.Shutdown() // skips the dead server
	for _, l := range links {
		l.Close()
	}
	for i, done := range serveDone {
		err := <-done
		if i == 1 {
			continue // the killed server's serve loop fails by design
		}
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
}
