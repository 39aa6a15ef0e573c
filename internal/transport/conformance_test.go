package transport

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The shared Mesh conformance suite: every behavior internal/train relies
// on — keyed (reorder-tolerant) delivery, the Close-while-sending contract,
// queued messages surviving Close, concurrent endpoints, and drop
// accounting — is pinned here once and run against all three mesh families.
// Implementation-specific semantics (simulated latency, bandwidth sharing,
// in-flight reordering) stay in mesh_test.go.

// meshCase builds one n-endpoint mesh. cleanup tears down any real
// resources (sockets) behind it.
type meshCase struct {
	name  string
	build func(t *testing.T, n int) (mesh Mesh, cleanup func())
}

func meshCases() []meshCase {
	return []meshCase{
		{"inproc", func(t *testing.T, n int) (Mesh, func()) {
			return NewInprocMesh(n), func() {}
		}},
		{"sim", func(t *testing.T, n int) (Mesh, func()) {
			// Enough latency that messages are genuinely in flight, tight
			// enough that tests stay fast.
			return NewSimMesh(n, 2*time.Millisecond, 0), func() {}
		}},
		{"tcp", func(t *testing.T, n int) (Mesh, func()) {
			m, err := NewLoopbackTCPMesh(n)
			if err != nil {
				t.Fatalf("loopback tcp mesh: %v", err)
			}
			return m, m.Shutdown
		}},
	}
}

// payload builds a codec-encodable payload carrying a recognizable key, so
// the suite works identically over in-memory and wire meshes.
func payload(key int) RawMsg {
	return RawMsg(fmt.Sprintf("msg-%d", key))
}

// TestMeshConformanceRoundTrip: a message arrives once, with sender rank,
// receiver rank, declared bytes, and payload intact.
func TestMeshConformanceRoundTrip(t *testing.T) {
	for _, tc := range meshCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, cleanup := tc.build(t, 3)
			defer cleanup()
			if m.Size() != 3 {
				t.Fatalf("size %d", m.Size())
			}
			a, b := m.Endpoint(0), m.Endpoint(1)
			if a.Rank() != 0 || b.Rank() != 1 {
				t.Fatalf("ranks %d/%d", a.Rank(), b.Rank())
			}
			if !a.Send(1, 100, payload(7)) {
				t.Fatal("send refused")
			}
			msg, ok := b.Recv()
			if !ok || msg.From != 0 || msg.To != 1 || msg.Bytes != 100 {
				t.Fatalf("recv %+v ok=%v", msg, ok)
			}
			if string(msg.Payload.(RawMsg)) != "msg-7" {
				t.Fatalf("payload %v", msg.Payload)
			}
			m.Quiesce()
			st := m.Stats()
			if st.Msgs != 1 || st.Bytes != 100 || st.Dropped != 0 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// TestMeshConformanceKeyedDelivery: every pair sends a burst of keyed
// messages; each receiver gets exactly its expected multiset, regardless of
// the order the fabric delivers in. This is the property the LRPP receivers
// build on (protocol state is keyed by (id, iteration), never sequenced).
func TestMeshConformanceKeyedDelivery(t *testing.T) {
	const n, k = 4, 25
	for _, tc := range meshCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, cleanup := tc.build(t, n)
			defer cleanup()
			var wg sync.WaitGroup
			for from := 0; from < n; from++ {
				wg.Add(1)
				go func(from int) {
					defer wg.Done()
					ep := m.Endpoint(from)
					for to := 0; to < n; to++ {
						if to == from {
							continue
						}
						for i := 0; i < k; i++ {
							key := (from*n+to)*k + i
							if !ep.Send(to, int64(8+key%13), payload(key)) {
								t.Errorf("send %d->%d refused", from, to)
								return
							}
						}
					}
				}(from)
			}
			got := make([]map[string]int, n)
			for to := 0; to < n; to++ {
				wg.Add(1)
				go func(to int) {
					defer wg.Done()
					ep := m.Endpoint(to)
					got[to] = make(map[string]int)
					for i := 0; i < (n-1)*k; i++ {
						msg, ok := ep.Recv()
						if !ok {
							t.Errorf("rank %d: stream ended after %d messages", to, i)
							return
						}
						if msg.To != to {
							t.Errorf("rank %d received message addressed to %d", to, msg.To)
						}
						got[to][string(msg.Payload.(RawMsg))]++
					}
				}(to)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for to := 0; to < n; to++ {
				for from := 0; from < n; from++ {
					if from == to {
						continue
					}
					for i := 0; i < k; i++ {
						key := fmt.Sprintf("msg-%d", (from*n+to)*k+i)
						if got[to][key] != 1 {
							t.Fatalf("rank %d saw %q %d times", to, key, got[to][key])
						}
					}
				}
			}
			m.Quiesce()
			if st := m.Stats(); st.Msgs != int64(n*(n-1)*k) || st.Dropped != 0 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// TestMeshConformanceCloseDrainsQueue: Close leaves already-delivered
// messages readable, then Recv reports end-of-stream; a blocked Recv wakes.
func TestMeshConformanceCloseDrainsQueue(t *testing.T) {
	for _, tc := range meshCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, cleanup := tc.build(t, 2)
			defer cleanup()
			a, b := m.Endpoint(0), m.Endpoint(1)
			a.Send(1, 1, payload(1))
			a.Send(1, 1, payload(2))
			// Make sure both messages have landed in b's queue before the
			// close (delivery is asynchronous on sim and tcp fabrics).
			first, ok := b.Recv()
			if !ok {
				t.Fatal("first message lost")
			}
			m.Quiesce()
			b.Close()
			second, ok := b.Recv()
			if !ok {
				t.Fatal("queued message not readable after Close")
			}
			seen := map[string]bool{string(first.Payload.(RawMsg)): true, string(second.Payload.(RawMsg)): true}
			if !seen["msg-1"] || !seen["msg-2"] {
				t.Fatalf("messages corrupted: %v", seen)
			}
			if _, ok := b.Recv(); ok {
				t.Fatal("drained closed endpoint still returns messages")
			}
			// A Recv blocked on a closed-and-drained endpoint returns
			// immediately; and a fresh blocked Recv wakes on Close.
			c := m.Endpoint(0)
			done := make(chan bool, 1)
			go func() {
				_, ok := c.Recv()
				done <- ok
			}()
			time.Sleep(5 * time.Millisecond)
			c.Close()
			if ok := <-done; ok {
				t.Fatal("Recv on closed empty endpoint returned a message")
			}
		})
	}
}

// TestMeshConformanceCloseWhileSending: concurrent senders racing a
// receiver Close must not panic, deadlock, or lose accounting — every
// accepted message is eventually either delivered or counted dropped, and
// sends after the close are not delivered.
func TestMeshConformanceCloseWhileSending(t *testing.T) {
	const senders, burst = 4, 16
	for _, tc := range meshCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, cleanup := tc.build(t, senders+1)
			defer cleanup()
			dst := m.Endpoint(senders)
			var accepted atomic.Int64
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					ep := m.Endpoint(s)
					for i := 0; i < burst; i++ {
						if ep.Send(senders, 10, payload(s*burst+i)) {
							accepted.Add(1)
						}
					}
				}(s)
			}
			// Read a few messages, then close mid-stream.
			for i := 0; i < 3; i++ {
				if _, ok := dst.Recv(); !ok {
					t.Fatal("stream ended early")
				}
			}
			dst.Close()
			wg.Wait()
			m.Quiesce()

			delivered := int64(3)
			for {
				_, ok := dst.Recv()
				if !ok {
					break
				}
				delivered++
			}
			st := m.Stats()
			// Msgs counts exactly the accepted sends on every mesh; each
			// accepted message must end up delivered or counted dropped
			// (Dropped may additionally count synchronously refused sends —
			// the in-process mesh does that).
			if st.Msgs != accepted.Load() {
				t.Fatalf("Msgs %d != %d accepted sends", st.Msgs, accepted.Load())
			}
			if delivered > accepted.Load() {
				t.Fatalf("%d delivered > %d accepted", delivered, accepted.Load())
			}
			if delivered+st.Dropped < accepted.Load() {
				t.Fatalf("accounting lost messages: %d accepted, only %d delivered + %d dropped",
					accepted.Load(), delivered, st.Dropped)
			}
			// A send after the close must not be delivered.
			if m.Endpoint(0).Send(senders, 10, payload(999)) {
				m.Quiesce()
				if _, ok := dst.Recv(); ok {
					t.Fatal("send to closed endpoint was delivered")
				}
			}
		})
	}
}

// TestMeshConformanceTypedPayloads: every engine wire type — including the
// segmented fused-collective frame, the coalesced sync batch, and the
// f16-quantized replica push — crosses every fabric intact. The in-memory
// meshes deliver by reference and the TCP mesh through the codec; the
// engine depends on both paths carrying equal values.
func TestMeshConformanceTypedPayloads(t *testing.T) {
	payloads := []any{
		ReplicaMsg{Iter: 2, Rows: map[uint64][]float32{7: {1, -2, 0.5}}},
		ReplicaMsg{Iter: 3, F16: true, Rows: map[uint64][]float32{9: QuantizeF16([]float32{0.25, 3.75})}},
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 5, Partials: map[uint64][]float32{3: {0.5, 2}, 6: {-3, 1}}},
			{Iter: 4, F16: true, Partials: map[uint64][]float32{8: QuantizeF16([]float32{-1, 0.1})}},
		}},
		FusedCollMsg{Seq: 11, Origin: 1, Segs: [][]float32{{1, 2}, {3, 4, 5}}, Loss: []float64{0.125}},
	}
	for _, tc := range meshCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, cleanup := tc.build(t, 2)
			defer cleanup()
			a, b := m.Endpoint(0), m.Endpoint(1)
			for _, p := range payloads {
				if !a.Send(1, int64(len(EncodePayload(p))), p) {
					t.Fatalf("send of %T refused", p)
				}
			}
			for range payloads {
				msg, ok := b.Recv()
				if !ok {
					t.Fatal("stream ended early")
				}
				// Fabrics may reorder; match by type.
				var want any
				for _, p := range payloads {
					if reflect.TypeOf(p) == reflect.TypeOf(msg.Payload) {
						if rp, isRep := p.(ReplicaMsg); isRep && rp.F16 != msg.Payload.(ReplicaMsg).F16 {
							continue
						}
						want = p
					}
				}
				if want == nil || !reflect.DeepEqual(want, msg.Payload) {
					t.Fatalf("payload %T arrived as %+v, want %+v", msg.Payload, msg.Payload, want)
				}
			}
		})
	}
}

// TestMeshConformanceSelfSend: a rank may address itself (the engines don't
// today, but the contract shouldn't make it a trap).
func TestMeshConformanceSelfSend(t *testing.T) {
	for _, tc := range meshCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, cleanup := tc.build(t, 2)
			defer cleanup()
			ep := m.Endpoint(0)
			if !ep.Send(0, 5, payload(3)) {
				t.Fatal("self send refused")
			}
			msg, ok := ep.Recv()
			if !ok || msg.From != 0 || msg.To != 0 || string(msg.Payload.(RawMsg)) != "msg-3" {
				t.Fatalf("self recv %+v ok=%v", msg, ok)
			}
		})
	}
}
