package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"bagpipe/internal/embed"
)

// allocDuring returns the bytes the whole process allocated while fn ran.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileLen is a frame length prefix announcing 512 MiB, well inside
// maxFrame, that no body will follow.
func hostileLen() []byte { return binary.LittleEndian.AppendUint32(nil, 512<<20) }

// TestFrameReadsAllocateWithData: a peer past the handshake that sends a
// 512 MiB length prefix and closes must cost each socket reader — the mesh
// reader, the link's response reader and ServeEmbed's request reader —
// memory in proportion to the bytes that arrived, not to the prefix: the
// read fails and the process allocates under 1 MiB meanwhile.
func TestFrameReadsAllocateWithData(t *testing.T) {
	const limit = 1 << 20

	t.Run("mesh", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs := []string{lis.Addr().String(), "peer"}
		built := make(chan *TCPMesh, 1)
		go func() {
			m, err := NewTCPMesh(0, addrs, lis)
			if err != nil {
				t.Error(err)
			}
			built <- m
		}()
		// The hostile peer completes the handshake as rank 1.
		peer, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		hello := binary.LittleEndian.AppendUint32(nil, meshMagic)
		peer.Write(binary.LittleEndian.AppendUint32(hello, 1))
		if _, err := io.ReadFull(peer, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		m := <-built
		if m == nil {
			return
		}
		// It says goodbye first, so the reader returns on the broken stream
		// instead of treating it as a crashed peer; Shutdown then waits for
		// the reader to be done with the prefix.
		n := allocDuring(func() {
			peer.Write(append(binary.LittleEndian.AppendUint32(nil, 1), goodbyeByte))
			peer.Write(hostileLen())
			peer.Close()
			m.Shutdown()
		})
		if n >= limit {
			t.Fatalf("mesh reader allocated %d bytes for a 4-byte prefix", n)
		}
	})

	t.Run("link", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		// A server that completes the handshake, takes one request and
		// answers it with the bare prefix.
		go func() {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			io.ReadFull(conn, make([]byte, 4))
			ack := binary.LittleEndian.AppendUint32(nil, linkMagic)
			conn.Write(binary.LittleEndian.AppendUint32(ack, 4))
			if _, err := readFrame(bufio.NewReader(conn), nil); err == nil {
				conn.Write(hostileLen())
			}
		}()
		link, err := DialTCPLink(lis.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		n := allocDuring(func() { _, err = link.TryFetch([]uint64{1}) })
		if err == nil {
			t.Fatal("fetch answered by a bare 512 MiB prefix succeeded")
		}
		if n >= limit {
			t.Fatalf("link reader allocated %d bytes for a 4-byte prefix", n)
		}
	})

	t.Run("serve", func(t *testing.T) {
		addr, join := startEmbedServer(t, embed.NewServer(1, 4, 1, 0.1))
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(binary.LittleEndian.AppendUint32(nil, linkMagic))
		if _, err := io.ReadFull(conn, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		// Half-close after the prefix: the server's EOF on our side marks
		// the moment its reader gave up on the frame.
		n := allocDuring(func() {
			conn.Write(hostileLen())
			conn.(*net.TCPConn).CloseWrite()
			io.Copy(io.Discard, conn)
		})
		conn.Close()
		if n >= limit {
			t.Fatalf("ServeEmbed reader allocated %d bytes for a 4-byte prefix", n)
		}
		link, err := DialTCPLink(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		link.Shutdown()
		link.Close()
		join()
	})
}

// TestFrameTakenAtDeclaredSize: the TCP endpoint takes each frame at the
// size declared for it, which the engine declares as PayloadSize. For a
// frame of every engine class, each larger than the smallest pooled buffer,
// the frame is the 8-byte declared size and then exactly the encoding, so
// the declared size is the frame's payload length. A declared size short of the encoding still yields
// the same frame. TestTCPMeshSteadyStateAllocs gates the regrowth a short
// size would cost.
func TestFrameTakenAtDeclaredSize(t *testing.T) {
	rows := func(n, dim int) [][]float32 {
		rs := make([][]float32, n)
		for i := range rs {
			rs[i] = make([]float32, dim)
			for k := range rs[i] {
				rs[i][k] = float32(i) - 0.5*float32(k)
			}
		}
		return rs
	}
	o := benchOracle(true, 1, 2)
	d, _ := o.Next()
	for _, p := range []any{
		ReplicaMsg{Iter: 3, Rows: rows(64, 16)},
		SyncBatchMsg{Flushes: []SyncMsg{{Iter: 3, Class: SyncUrgent, Partials: rows(20, 16)}, {Iter: 3, Class: SyncDeferred, Partials: rows(30, 16)}}},
		PlanMsg{Plan: d.Plans(2)[1]},
		FusedCollMsg{Seq: 3, Origin: 1, Data: rows(1, 1200)[0], Loss: []float64{0.5}},
		gatherMsg(3, 1, rows(1, 1200)[0], rows(2, 1200)[1]),
	} {
		want := EncodePayload(p)
		n := PayloadSize(p)
		if n <= minPooledBuf {
			t.Fatalf("%T: %d bytes fits the smallest pooled buffer; the case shows nothing", p, n)
		}
		for _, declared := range []int64{int64(n), 1} {
			frame := encodeFrame(declared, p)
			if got := int64(binary.LittleEndian.Uint64(frame)); got != declared {
				t.Fatalf("%T: header declares %d, want %d", p, got, declared)
			}
			if !bytes.Equal(frame[8:], want) {
				t.Fatalf("%T declared as %d: frame payload of %d bytes differs from the %d-byte encoding", p, declared, len(frame)-8, len(want))
			}
			putBuf(frame)
		}
	}
}

// TestTCPMeshSteadyStateAllocs is the TCP data path's allocation gate. Over
// a loopback mesh, each round sends what one LRPP iteration sends a peer —
// a replica push of 32 pooled arena rows, a sync batch of two flushes and a
// reduce-scatter frame of a chunk from the row arena — and the receiver
// recycles each the way the engine does. Once the pools are warm nothing
// scales with rows or floats; what is left is per message:
//
//   - boxing the payload into Send's `any`: 3 (one per message);
//   - boxing the decoded payload into DecodePayload's `any`: 3;
//   - the sync batch's Flushes this sender builds (the decoder's come from
//     the pool): 1;
//   - the collective frame's Loss, which the sender builds and the decoder
//     rebuilds: 2.
//
// 9 per round; the gate allows one more for an arena that is briefly dry
// while the receiver still holds the previous round's rows. Before the TCP
// endpoint recycled what it encoded, every decoded row and segment was a
// fresh allocation.
func TestTCPMeshSteadyStateAllocs(t *testing.T) {
	const (
		dim      = 16
		rows     = 32
		maxAlloc = 10
	)
	const collFloats = 338
	lb, err := NewLoopbackTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Shutdown()
	a, b := lb.Endpoint(0), lb.Endpoint(1)
	arena := Rows(dim)
	fill := func(n int) [][]float32 {
		rs := GetRowSlice(n)
		arena.GetN(rs)
		for i, row := range rs {
			for k := range row {
				row[k] = float32(i + k)
			}
		}
		return rs
	}
	// send declares the encoded size, as the engine does for every send.
	send := func(p any) { a.Send(1, int64(PayloadSize(p)), p) }
	round := func() {
		send(ReplicaMsg{Iter: 3, Rows: fill(rows)})
		send(SyncBatchMsg{Flushes: []SyncMsg{{Iter: 3, Class: SyncUrgent, Partials: fill(4)}, {Iter: 3, Class: SyncDeferred, Partials: fill(6)}}})
		send(FusedCollMsg{Seq: 3, Origin: 0, Data: Rows(collFloats).Get(), Loss: []float64{0.5}})

		for i := 0; i < 3; i++ {
			msg, ok := b.Recv()
			if !ok {
				t.Fatal("mesh closed")
			}
			ReleasePayload(msg.Payload)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	got := testing.AllocsPerRun(200, round)
	if got > maxAlloc {
		t.Fatalf("%.1f allocations per round, want ≤ %d: something on the TCP path allocates per row or per frame", got, maxAlloc)
	}
	t.Logf("%.0f allocations per round", got)
}
