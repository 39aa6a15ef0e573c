package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"bagpipe/internal/embed"
)

// storeOnly hides every Link method of the wrapped store: a tier child
// with only the errorless face, which the tier must refuse wherever a
// connection enters it.
type storeOnly struct{ Store }

// TestTierRefusesStoreOnlyChild: a rejoin or a dialed spare without the
// Link face is an error, not a child the tier would have to special-case.
func TestTierRefusesStoreOnlyChild(t *testing.T) {
	tier := testTier(3)
	st := NewTier([]Store{NewInProcess(tier[0]), nil, nil}, TierOptions{
		Dead:           []bool{false, true, false},
		InitialServers: 2,
		Dial:           func(int) (Store, error) { return storeOnly{NewInProcess(tier[2])}, nil },
	})
	if err := st.BeginRejoin(1, storeOnly{NewInProcess(freshServer())}); err == nil || !strings.Contains(err.Error(), "Link") {
		t.Fatalf("BeginRejoin with a Store-only child: err = %v, want a missing-Link error", err)
	}
	if err := st.EnsureServer(2); err == nil || !strings.Contains(err.Error(), "Link") {
		t.Fatalf("grow onto a dialed Store-only spare: err = %v, want a missing-Link error", err)
	}
}

// TestDeadSlotPrimitivesReturnErrors: every coordinator primitive aimed at
// a slot dead since construction (no connection at all) answers with an
// attributed error instead of dereferencing the missing link.
func TestDeadSlotPrimitivesReturnErrors(t *testing.T) {
	tier := testTier(2)
	st := NewTier([]Store{NewInProcess(tier[0]), nil}, TierOptions{Dead: []bool{false, true}})
	ops := map[string]func() error{
		"BeginRecoveryOn": func() error { return st.BeginRecoveryOn(1) },
		"CopyPart": func() error {
			_, _, err := st.CopyPart(1, 1, 2, 0, 1, TransferOptions{}, false)
			return err
		},
		"CopyPart verify-only": func() error {
			_, _, err := st.CopyPart(1, 1, 2, 0, 1, TransferOptions{}, true)
			return err
		},
		"RetainOwnedOn": func() error {
			_, err := st.RetainOwnedOn(1, 1, 2, 1)
			return err
		},
	}
	for name, op := range ops {
		if err := op(); err == nil || !strings.Contains(err.Error(), "server 1") {
			t.Errorf("%s on a dead-since-construction slot: err = %v, want one naming server 1", name, err)
		}
	}
}

// startGarbageServer accepts link connections, completes the handshake at
// dim, and answers every request with a well-framed response whose payload
// is reply(op) — a peer that speaks the framing but not the ops.
func startGarbageServer(t *testing.T, dim int, reply func(op byte) []byte) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					return
				}
				var ack [8]byte
				binary.LittleEndian.PutUint32(ack[:4], linkMagic)
				binary.LittleEndian.PutUint32(ack[4:], uint32(dim))
				if _, err := conn.Write(ack[:]); err != nil {
					return
				}
				br, fw := bufio.NewReader(conn), newFrameWriter(conn)
				for {
					body, err := readFrame(br, nil)
					if err != nil || len(body) < 9 {
						return
					}
					resp := append([]byte{opResp}, body[1:9]...)
					if fw.writeFrame(append(resp, reply(body[0])...)) != nil || fw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// TestTCPLinkMalformedResponses: a peer answering with truncated or
// mismatched bodies makes the fetch and every control op return an
// attributed error — never a panic, never a zero value passed off as a
// certificate — and an R = 2 tier over that peer condemns it and keeps
// serving from the replica.
func TestTCPLinkMalformedResponses(t *testing.T) {
	const dim = 4
	replies := map[string]func(op byte) []byte{
		"truncated": func(byte) []byte { return nil },
		"mismatched": func(op byte) []byte {
			if op == opFetch {
				return putF32s(nil, []float32{1}) // one float, whatever the id count
			}
			return putCtlResult(nil, &CtlResult{IDs: []uint64{7}}) // one id, no floats
		},
	}
	for name, reply := range replies {
		t.Run(name, func(t *testing.T) {
			addr := startGarbageServer(t, dim, reply)
			link, err := DialTCPLink(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer link.Close()
			ops := map[string]func() error{
				"TryFetch": func() error {
					_, err := link.TryFetch([]uint64{1, 2})
					return err
				},
			}
			for _, op := range allCtlOps() {
				ops[op.String()] = func() error {
					_, err := link.Control(sampleCtl(op, dim))
					return err
				}
			}
			for op, call := range ops {
				if err := call(); err == nil || !strings.Contains(err.Error(), addr) {
					t.Errorf("%s over a %s response: err = %v, want an error naming %s", op, name, err, addr)
				}
			}

			// The garbage peer is server 0 of an R = 2 tier: its reads fail,
			// retries exhaust, it is condemned, and partition 0 is served by
			// its ring replica.
			tier := testTier(2)
			garbage, err := DialTCPLink(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer garbage.Close()
			var cause error
			st := NewTier([]Store{garbage, NewInProcess(tier[1])}, TierOptions{
				Replicate:  2,
				Retries:    2,
				Backoff:    time.Millisecond,
				Jitter:     zeroJitter,
				OnFailover: func(_ int, err error) { cause = err },
			})
			ids := []uint64{0, 1, 2, 3, 4, 5}
			rows := st.Fetch(ids)
			ref := NewInProcess(embed.NewServer(3, dim, 11, 0.1)).Fetch(ids)
			for i := range ids {
				if fmt.Sprint(rows[i]) != fmt.Sprint(ref[i]) {
					t.Fatalf("id %d: served %v, replica reference %v", ids[i], rows[i], ref[i])
				}
			}
			if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 0 {
				t.Fatalf("DeadServers() = %v, want [0]", dead)
			}
			if cause == nil || !strings.Contains(cause.Error(), "malformed") {
				t.Fatalf("server 0 condemned with %v, want the malformed-response error", cause)
			}
			st.Write(ids, rows)
		})
	}
}

// retiredOps are the reserved slots of the retired control ops: the
// whole-partition fingerprint, checkpoint and export, and end-recovery.
var retiredOps = []CtlOp{CtlOp(opWrite + 1), CtlOp(opWrite + 2), CtlOp(opResp + 1), CtlOp(opWriteRecovery + 1)}

// TestRetiredOpClosesConn: after a real handshake, a frame carrying a
// retired opcode closes the connection with no response frame.
func TestRetiredOpClosesConn(t *testing.T) {
	for _, op := range retiredOps {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			serveEmbedConn(server, embed.NewServer(1, 4, 7, 0.1), func() {})
		}()
		client.SetDeadline(time.Now().Add(10 * time.Second))
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], linkMagic)
		var ack [8]byte
		if _, err := client.Write(hello[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, ack[:]); err != nil {
			t.Fatal(err)
		}
		frame := putU64(append(putU32(nil, 9), byte(op)), 1)
		if _, err := client.Write(frame); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if body, err := readFrame(bufio.NewReader(client), nil); err != io.EOF {
			t.Fatalf("%v: server answered % x (err %v), want the connection closed", op, body, err)
		}
		<-done
		client.Close()
	}
}

// FuzzServeEmbedConn feeds hostile request streams to the embedding
// server's per-connection loop after a real handshake over net.Pipe. The
// server must answer with well-formed response frames or close the
// connection; it must never panic and never hang once its input ends.
func FuzzServeEmbedConn(f *testing.F) {
	frame := func(op byte, body []byte) []byte {
		b := putU32(nil, uint32(9+len(body)))
		b = append(b, op)
		b = putU64(b, 1)
		return append(b, body...)
	}
	u32s := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = putU32(b, v)
		}
		return b
	}
	rowsBody := putU64s(nil, []uint64{3, 8})
	for _, row := range [][]float32{{1, 2, 3, 4}, {-1, 0.5, 0, 2}} {
		rowsBody = putF32s(rowsBody, row)
	}
	fetch := frame(opFetch, putU64s(nil, []uint64{1, 2, 5}))
	install := frame(opInstallRouting, encodeRouting(nil, settledRouting(1, 2)))
	// Every control op in the layout it travels in, valid and with
	// arguments the dispatcher refuses; and the four reserved opcodes (the
	// retired whole-partition fingerprint, checkpoint, export and
	// end-recovery).
	for _, op := range append(allCtlOps(), retiredOps...) {
		f.Add(frame(byte(op), putCtl(nil, sampleCtl(op, 4))))
		f.Add(frame(byte(op), putCtl(nil, &Ctl{Op: op, Part: 3, Of: 2, WithinOf: -1, IDs: []uint64{4}})))
	}
	// An install, then an announce of another epoch that fences the fetch
	// after it.
	f.Add(slices.Concat(
		frame(opInstallRouting, putCtl(nil, &Ctl{Routing: settledRouting(1, 2)})),
		frame(opAnnounceEpoch, putCtl(nil, &Ctl{Epoch: 2})),
		fetch))
	// The seeds from before the one control layout, where a control op in
	// its old layout now closes the connection.
	for _, seed := range [][]byte{
		fetch,
		frame(opWrite, rowsBody),
		frame(opWrite+2, nil), // the retired checkpoint
		frame(opShutdown, nil),
		frame(opWriteRecovery, rowsBody),
		frame(opWriteRecovery+1, nil), // the retired end-recovery
		frame(opBeginRecovery, nil),
		install,
		frame(opAnnounceEpoch, putU64(nil, 1)),
		frame(opExportPartIn, u32s(0, 2, 0, 1)),
		frame(opFingerprintPartIn, u32s(1, 2, 0, 1)),
		frame(opRetainOwned, u32s(0, 2, 1)),
		// The retired whole-partition ops (reserved slots after opWrite and
		// opResp).
		frame(opWrite+1, u32s(0, 1)),
		frame(opResp+1, u32s(0, 1)),
		// A truncated frame, and an install that fences the fetch after it.
		fetch[:len(fetch)-3],
		append(append([]byte{}, install...), fetch...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		srv := embed.NewServer(1, 4, 7, 0.1)
		client, server := net.Pipe()
		defer client.Close()
		done := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Sprintf("%v\n%s", p, debug.Stack())
				}
				close(done)
			}()
			defer server.Close()
			serveEmbedConn(server, srv, func() {})
		}()
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], linkMagic)
		var ack [8]byte
		if _, err := client.Write(hello[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, ack[:]); err != nil {
			t.Fatal(err)
		}
		// Every frame the server sends back must be a response. The reader
		// keeps draining after a bad one, so the server never blocks on it.
		bad := make(chan error, 1)
		go func() {
			br := bufio.NewReader(client)
			var buf []byte
			var first error
			for {
				body, err := readFrame(br, buf)
				if err != nil {
					bad <- first
					return
				}
				if first == nil && (len(body) < 9 || (body[0] != opResp && body[0] != opRespErr)) {
					first = fmt.Errorf("malformed response frame % x", body[:min(len(body), 16)])
				}
				buf = body
			}
		}()
		// A pipe write returns once the server has read every byte, so the
		// whole stream is in its hands; the read deadline is the end of input.
		client.Write(stream)
		server.SetReadDeadline(time.Now())
		select {
		case p, panicked := <-done:
			if panicked {
				t.Fatalf("serveEmbedConn panicked: %v", p)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serveEmbedConn neither answered nor closed after its input ended")
		}
		client.Close()
		if err := <-bad; err != nil {
			t.Fatal(err)
		}
	})
}
