package transport

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"bagpipe/internal/embed"
)

// allCtlOps lists every control op, ascending by opcode.
func allCtlOps() []CtlOp {
	var ops []CtlOp
	for op, name := range ctlNames {
		if name != "" {
			ops = append(ops, CtlOp(op))
		}
	}
	return ops
}

// sampleCtl is a request of op that every fabric accepts on a dim-wide
// server: an intersection filter, a mid-reshard routing table, a recovery
// write of three rows.
func sampleCtl(op CtlOp, dim int) *Ctl {
	c := &Ctl{Op: op}
	switch op {
	case CtlExportPartIn, CtlFingerprintPartIn:
		c.Part, c.Of, c.Within, c.WithinOf = 1, 2, 0, 3
	case CtlRetainOwned:
		c.Part, c.Of, c.Replicate = 0, 2, 1
	case CtlInstallRouting:
		c.Routing = &RoutingTable{Epoch: 3, OldS: 2, NewS: 3, State: []PartState{PartMoved, PartDual, PartPending}}
	case CtlAnnounceEpoch:
		c.Epoch = 3
	case CtlWriteRecovery:
		c.IDs = []uint64{2, 5, 9}
		for i := range c.IDs {
			row := make([]float32, dim)
			for k := range row {
				row[k] = float32(i) - 0.25*float32(k)
			}
			c.Rows = append(c.Rows, row)
		}
	}
	return c
}

// ctlServer is a 2-shard server at dim holding 64 written rows.
func ctlServer(dim int) *embed.Server {
	srv := embed.NewServer(2, dim, 5, 0.1)
	ids := make([]uint64, 64)
	rows := make([][]float32, len(ids))
	for i := range ids {
		ids[i] = uint64(3 * i)
		rows[i] = make([]float32, dim)
		for k := range rows[i] {
			rows[i][k] = float32(i*dim+k) / 8
		}
	}
	srv.Write(ids, rows)
	return srv
}

// ctlFabric is one way to reach a server: the link and the server behind
// it.
type ctlFabric struct {
	name string
	link Link
	srv  *embed.Server
}

// ctlFabrics builds three identical servers behind SimNet, an up
// FaultStore and a loopback TCPLink. The TCP server is stopped at cleanup
// unless *stopped says a shutdown op already did it.
func ctlFabrics(t *testing.T, dim int, stopped *bool) []ctlFabric {
	t.Helper()
	a, b, c := ctlServer(dim), ctlServer(dim), ctlServer(dim)
	addr, join := startEmbedServer(t, c)
	tl, err := DialTCPLink(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !*stopped {
			tl.Shutdown()
		}
		join()
		tl.Close()
	})
	return []ctlFabric{
		{"sim", NewInProcess(a), a},
		{"fault-up", NewFaultStore(NewInProcess(b), 3), b},
		{"tcp", tl, c},
	}
}

// TestControlConformance: every control op returns equal results and
// leaves equal server state on every fabric, a down FaultStore refuses it
// naming the server, and arguments the dispatcher rejects get the same
// error on every fabric — no panic, and the TCP link survives. Over TCP the
// client refuses them before sending; sent anyway as raw frames, the server
// answers with the same error and keeps the connection.
func TestControlConformance(t *testing.T) {
	const dim = 4
	if n := len(allCtlOps()); n != 8 {
		t.Fatalf("%d control ops, want 8", n)
	}
	for _, op := range allCtlOps() {
		t.Run(op.String(), func(t *testing.T) {
			stopped := false
			fabs := ctlFabrics(t, dim, &stopped)
			var want CtlResult
			for i, f := range fabs {
				res, err := f.link.Control(sampleCtl(op, dim))
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				if op == CtlShutdown && f.name == "tcp" {
					stopped = true
				}
				if i == 0 {
					want = res
					continue
				}
				if !reflect.DeepEqual(res, want) {
					t.Errorf("%s: result %+v, sim %+v", f.name, res, want)
				}
				if fp, ref := f.srv.Fingerprint(), fabs[0].srv.Fingerprint(); fp != ref {
					t.Errorf("%s: server fingerprint %x after the op, sim %x", f.name, fp, ref)
				}
				if e, ref := f.srv.RoutingEpoch(), fabs[0].srv.RoutingEpoch(); e != ref {
					t.Errorf("%s: server routing epoch %d after the op, sim %d", f.name, e, ref)
				}
			}
			if op == CtlExportPartIn && len(want.IDs) == 0 {
				t.Fatal("the sample export is empty: it compares nothing")
			}
			// The announced epoch an install or announce moves fences the
			// data path alike.
			for _, f := range fabs {
				if f.name == "tcp" && stopped {
					continue
				}
				rows, err := f.link.TryFetch([]uint64{1, 2, 3})
				if err != nil || len(rows) != 3 {
					t.Errorf("%s: fetch after %v: %d rows, err %v", f.name, op, len(rows), err)
				}
			}

			down := NewFaultStore(NewInProcess(ctlServer(dim)), 3)
			down.SetDown(true)
			if _, err := down.Control(sampleCtl(op, dim)); err == nil || !strings.Contains(err.Error(), "server 3") {
				t.Errorf("down FaultStore: err = %v, want one naming server 3", err)
			}
		})
	}

	bad := []struct {
		name string
		ctl  Ctl
		raw  bool // the wire carries it faithfully, so a raw frame reaches the server's check
	}{
		{"export part = of", Ctl{Op: CtlExportPartIn, Part: 2, Of: 2}, true},
		{"export of 0", Ctl{Op: CtlExportPartIn}, true},
		{"export negative part", Ctl{Op: CtlExportPartIn, Part: -1, Of: 2}, true},
		{"export within = withinOf", Ctl{Op: CtlExportPartIn, Of: 2, Within: 3, WithinOf: 3}, true},
		{"fingerprint part > of", Ctl{Op: CtlFingerprintPartIn, Part: 5, Of: 3}, true},
		{"fingerprint negative within", Ctl{Op: CtlFingerprintPartIn, Of: 2, Within: -1, WithinOf: 2}, true},
		{"retain replicate 0", Ctl{Op: CtlRetainOwned, Part: 0, Of: 2}, true},
		{"retain server = of", Ctl{Op: CtlRetainOwned, Part: 2, Of: 2, Replicate: 1}, true},
		{"retain of 0", Ctl{Op: CtlRetainOwned, Replicate: 1}, true},
		{"install no table", Ctl{Op: CtlInstallRouting}, true},
		{"install zero width", Ctl{Op: CtlInstallRouting, Routing: &RoutingTable{Epoch: 1, NewS: 2}}, true},
		{"install unknown state", Ctl{Op: CtlInstallRouting, Routing: &RoutingTable{Epoch: 1, OldS: 1, NewS: 2, State: []PartState{7, 0}}}, true},
		{"install states of another width", Ctl{Op: CtlInstallRouting, Routing: &RoutingTable{Epoch: 1, OldS: 1, NewS: 2, State: []PartState{0, 0, 0}}}, false},
		{"write-recovery ids without rows", Ctl{Op: CtlWriteRecovery, IDs: []uint64{1, 2}, Rows: [][]float32{make([]float32, dim)}}, true},
		{"write-recovery narrow row", Ctl{Op: CtlWriteRecovery, IDs: []uint64{1}, Rows: [][]float32{make([]float32, dim-1)}}, true},
		{"fetch opcode", Ctl{Op: CtlOp(opFetch)}, false},
		{"reserved opcode", Ctl{Op: CtlOp(opWrite + 1)}, false},
		{"retired checkpoint opcode", Ctl{Op: CtlOp(opWrite + 2)}, false},
		{"retired end-recovery opcode", Ctl{Op: CtlOp(opWriteRecovery + 1)}, false},
		{"response opcode", Ctl{Op: CtlOp(opResp)}, false},
	}
	stopped := false
	fabs := ctlFabrics(t, dim, &stopped)
	tl := fabs[2].link.(*TCPLink)
	for _, tc := range bad {
		var want string
		for i, f := range fabs {
			_, err := f.link.Control(&tc.ctl)
			if err == nil {
				t.Errorf("%s on %s: accepted", tc.name, f.name)
				continue
			}
			if _, ok := err.(*RefusedError); !ok {
				t.Errorf("%s on %s: %T, want a *RefusedError", tc.name, f.name, err)
			}
			if i == 0 {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s on %s: %q, sim %q", tc.name, f.name, err, want)
			}
		}
		if tc.raw {
			_, err := tl.roundTrip(byte(tc.ctl.Op), 0, func(b []byte) []byte { return putCtl(b, &tc.ctl) })
			if _, ok := err.(*RefusedError); !ok || err.Error() != want {
				t.Errorf("%s as a raw frame: server answered %v, want the refusal %q", tc.name, err, want)
			}
		}
	}
	for _, f := range fabs {
		if fp, ref := f.srv.Fingerprint(), ctlServer(dim).Fingerprint(); fp != ref {
			t.Errorf("%s: a refused op changed the server (fingerprint %x, fresh %x)", f.name, fp, ref)
		}
	}
	if _, err := tl.Control(sampleCtl(CtlFingerprintPartIn, dim)); err != nil {
		t.Fatalf("tcp link after the refused ops: %v", err)
	}
}

// TestCtlCodecRoundTrip: a control request decodes to what was encoded,
// whatever its fields hold, and a decode reusing one connection's buffers
// after a larger request matches a fresh one.
func TestCtlCodecRoundTrip(t *testing.T) {
	const dim = 4
	var reused ctlBuf
	big := sampleCtl(CtlWriteRecovery, 3*dim)
	r := &wireReader{b: putCtl(nil, big)}
	r.ctl(&reused, big.Op)
	for _, op := range allCtlOps() {
		for _, c := range []*Ctl{
			sampleCtl(op, dim),
			{Op: op, Part: -7, Of: 1 << 30, Within: 3, WithinOf: -1, Replicate: 9, Epoch: 1<<64 - 1,
				IDs: []uint64{1}, Rows: [][]float32{{1}, nil, {2, 3}}},
		} {
			for _, buf := range []*ctlBuf{{}, &reused} {
				r := &wireReader{b: putCtl(nil, c)}
				got := r.ctl(buf, op)
				if r.err != nil {
					t.Fatalf("%v: decode: %v", op, r.err)
				}
				if !reflect.DeepEqual(got, c) {
					t.Fatalf("%v: decoded %+v, encoded %+v", op, got, c)
				}
			}
		}
	}
	for _, body := range [][]byte{nil, putCtl(nil, sampleCtl(CtlRetainOwned, dim))[:20], append(putCtl(nil, &Ctl{}), 0)} {
		r := &wireReader{b: body}
		if r.ctl(&ctlBuf{}, CtlRetainOwned); r.err == nil {
			t.Errorf("% x decoded as a control request", body)
		}
	}
}

// FuzzLinkResponse feeds hostile response bodies to TCPLink's fetch
// decoder and its control result decoder, and hostile error payloads to
// decodeLinkErr. A decoder either accepts — a fetch yields its rows, a
// control result re-encodes to the same bytes — or returns an error naming
// the peer; it never panics.
func FuzzLinkResponse(f *testing.F) {
	const dim = 4
	f.Add(uint8(2), putF32s(nil, make([]float32, 2*dim)))
	f.Add(uint8(1), putF32s(nil, []float32{1}))
	f.Add(uint8(0), putCtlResult(nil, &CtlResult{N: 7}))
	f.Add(uint8(1), putCtlResult(nil, &CtlResult{IDs: []uint64{3, 8}, Rows: [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}}}))
	// A checkpoint result in the version 2 layout, whose byte field this
	// layout no longer has.
	f.Add(uint8(1), append(putU32(putU64(nil, 0), 10), "checkpoint\x00\x00\x00\x00\x00\x00\x00\x00"...))
	f.Add(uint8(1), putCtlResult(nil, &CtlResult{IDs: []uint64{7}}))
	f.Add(uint8(0), putU64(append([]byte{respErrStale}, putU64(nil, 2)...), 9))
	f.Add(uint8(0), append([]byte{respErrGeneric}, "refused"...))
	// The decoders read only the body and name the peer; no byte crosses
	// the pipe.
	client, server := net.Pipe()
	f.Cleanup(func() { client.Close(); server.Close() })
	link := &TCPLink{conn: client, dim: dim, arena: Rows(dim)}
	peer := client.RemoteAddr().String()
	f.Fuzz(func(t *testing.T, n uint8, body []byte) {
		if rows, err := link.fetchRows(body, int(n)); err != nil {
			if !strings.Contains(err.Error(), peer) {
				t.Fatalf("fetch decode error %q does not name the peer", err)
			}
		} else {
			if len(rows) != int(n) {
				t.Fatalf("fetch decoded %d rows for %d ids", len(rows), n)
			}
			link.arena.PutN(rows)
			PutRowSlice(rows)
		}
		if res, err := link.ctlResult(body); err != nil {
			if !strings.Contains(err.Error(), peer) {
				t.Fatalf("control decode error %q does not name the peer", err)
			}
		} else if back := putCtlResult(nil, &res); !bytes.Equal(back, body) {
			t.Fatalf("accepted control result re-encodes to % x, got % x", back, body)
		}
		for _, op := range []byte{opFetch, opExportPartIn} {
			if err := decodeLinkErr(op, body); err == nil {
				t.Fatal("an error payload decoded to no error")
			}
		}
	})
}
