package transport

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bagpipe/internal/embed"
)

// The routing conformance suite: hand-built reshard tables pushed onto an
// in-process tier whose links record which ids each server was asked for.
// Every data op must reach exactly the servers its table names — reads the
// first live server of the id's read ring, writes the live members of the
// old-space ring plus, once the new partition's dual window is open, the
// live new-ring members outside it — and the tier's contents must stay
// equivalent to an S=1 reference whatever the mix of partition states.

// opLog records, per id, the servers a data op reached.
type opLog struct {
	mu      sync.Mutex
	fetched map[uint64][]int
	written map[uint64][]int
}

func (o *opLog) reset() {
	o.mu.Lock()
	o.fetched, o.written = map[uint64][]int{}, map[uint64][]int{}
	o.mu.Unlock()
}

func (o *opLog) add(m map[uint64][]int, server int, ids []uint64) {
	o.mu.Lock()
	for _, id := range ids {
		m[id] = append(m[id], server)
	}
	o.mu.Unlock()
}

// loggingLink is a tier child that logs every successful fetch and write.
// serial picks the scatter the tier runs over it: instant children are
// scattered inline, the rest concurrently.
type loggingLink struct {
	Link
	server int
	serial bool
	log    *opLog
}

func (l *loggingLink) instant() bool { return l.serial }

func (l *loggingLink) TryFetch(ids []uint64) ([][]float32, error) {
	rows, err := l.Link.TryFetch(ids)
	if err == nil {
		l.log.add(l.log.fetched, l.server, ids)
	}
	return rows, err
}

func (l *loggingLink) TryWrite(ids []uint64, rows [][]float32) error {
	err := l.Link.TryWrite(ids, rows)
	if err == nil {
		l.log.add(l.log.written, l.server, ids)
	}
	return err
}

// routingCase is one table pushed onto a fresh tier.
type routingCase struct {
	oldS, newS, r int
	state         []PartState
	dead          int // condemned at construction; -1 for none
}

func (c routingCase) String() string {
	name := fmt.Sprintf("S%dto%d/R%d/%v", c.oldS, c.newS, c.r, c.state)
	if c.dead >= 0 {
		name += fmt.Sprintf("/dead%d", c.dead)
	}
	return name
}

// routingCases grows 2→4 and shrinks 4→2 at R ∈ {1, 2}, cycling every new
// partition through Pending, Dual and Moved, plus a grow with a condemned
// server.
func routingCases() []routingCase {
	var cases []routingCase
	cycle := func(oldS, newS, r, dead int) {
		for shift := 0; shift < 3; shift++ {
			st := make([]PartState, newS)
			for p := range st {
				st[p] = PartState((p + shift) % 3)
			}
			cases = append(cases, routingCase{oldS, newS, r, st, dead})
		}
	}
	for _, r := range []int{1, 2} {
		cycle(2, 4, r, -1)
		cycle(4, 2, r, -1)
	}
	cycle(2, 4, 2, 1)
	return cases
}

// ringMembers lists the replica ring based at base in a width-wide space.
func ringMembers(base, width, r int) []int {
	out := make([]int, 0, r)
	for k := 0; k < min(r, width); k++ {
		out = append(out, (base+k)%width)
	}
	return out
}

// wantRead is the one server a read of id must reach under c.
func (c routingCase) wantRead(id uint64) int {
	base, width := int(id%uint64(c.oldS)), c.oldS
	if pn := int(id % uint64(c.newS)); c.state[pn] == PartMoved {
		base, width = pn, c.newS
	}
	for _, s := range ringMembers(base, width, c.r) {
		if s != c.dead {
			return s
		}
	}
	return -1
}

// wantWrite is the set of servers a write of id must reach under c: the
// live members of its old ring, then its dual leg.
func (c routingCase) wantWrite(id uint64) []int {
	q, pn := int(id%uint64(c.oldS)), int(id%uint64(c.newS))
	old := ringMembers(q, c.oldS, c.r)
	var want []int
	for _, s := range old {
		if s != c.dead {
			want = append(want, s)
		}
	}
	if c.state[pn] != PartPending {
		for _, s := range ringMembers(pn, c.newS, c.r) {
			if s != c.dead && !slices.Contains(old, s) {
				want = append(want, s)
			}
		}
	}
	slices.Sort(want)
	return want
}

// TestRoutingConformance drives Write, Fetch, ReadFetch and Fingerprint
// through every routing case over both scatters.
func TestRoutingConformance(t *testing.T) {
	const n = 64
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i*7 + 3)
	}
	for _, c := range routingCases() {
		for _, serial := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/serial=%v", c, serial), func(t *testing.T) {
				const capacity = 4
				log := &opLog{}
				log.reset()
				children := make([]Store, capacity)
				for s, srv := range testTier(capacity) {
					children[s] = &loggingLink{Link: NewInProcess(srv), server: s, serial: serial, log: log}
				}
				dead := make([]bool, capacity)
				if c.dead >= 0 {
					dead[c.dead] = true
				}
				st := NewTier(children, TierOptions{Replicate: c.r, InitialServers: c.oldS, Dead: dead, Jitter: zeroJitter})
				if err := st.PushRouting(&RoutingTable{Epoch: 1, OldS: c.oldS, NewS: c.newS, State: c.state}); err != nil {
					t.Fatal(err)
				}
				ref := NewInProcess(embed.NewServer(3, 4, 11, 0.1))
				for round := 0; round < 2; round++ {
					rows := make([][]float32, n)
					for i, id := range ids {
						rows[i] = []float32{float32(id), float32(round), float32(i), -float32(id)}
					}
					ref.Write(ids, rows)
					log.reset()
					st.Write(ids, rows)
					for _, id := range ids {
						got := append([]int(nil), log.written[id]...)
						slices.Sort(got)
						if want := c.wantWrite(id); !slices.Equal(got, want) {
							t.Fatalf("round %d: write of id %d reached servers %v, want %v", round, id, got, want)
						}
					}

					want := ref.Fetch(ids)
					log.reset()
					checkRead(t, "Fetch", c, ids, want, st.Fetch(ids), log)
					log.reset()
					got, err := st.ReadFetch(ids, nil)
					if err != nil {
						t.Fatal(err)
					}
					checkRead(t, "ReadFetch", c, ids, want, got, log)
				}
				if got, want := st.Fingerprint(), ref.Fingerprint(); got != want {
					t.Fatalf("fingerprint %016x, reference %016x", got, want)
				}
			})
		}
	}
}

// checkRead asserts a read returned the reference rows and reached only
// each id's first live read-ring server.
func checkRead(t *testing.T, op string, c routingCase, ids []uint64, want, got [][]float32, log *opLog) {
	t.Helper()
	for i, id := range ids {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s id %d: row %v, reference %v", op, id, got[i], want[i])
		}
		if srv, w := log.fetched[id], c.wantRead(id); len(srv) != 1 || srv[0] != w {
			t.Fatalf("%s of id %d reached servers %v, want [%d]", op, id, srv, w)
		}
	}
}

// TestTierScatterAllocFree pins the tier client's scatter allocation-free
// in both routing states: a warmed Fetch, Write or ReadFetch over instant
// children touches no allocator, settled or mid-reshard with new
// partitions in each of Moved, Dual and Pending.
func TestTierScatterAllocFree(t *testing.T) {
	tables := []struct {
		name string
		rt   *RoutingTable
	}{
		{"settled", nil},
		{"resharding", &RoutingTable{Epoch: 1, OldS: 2, NewS: 3, State: []PartState{PartMoved, PartDual, PartPending}}},
	}
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			children := make([]Store, 4)
			for s, srv := range testTier(4) {
				children[s] = NewSimNet(srv, 0, 0)
			}
			st := NewTier(children, TierOptions{Replicate: 2, InitialServers: 2})
			if tc.rt != nil {
				if err := st.PushRouting(tc.rt); err != nil {
					t.Fatal(err)
				}
			}
			ids := make([]uint64, 64)
			rows := make([][]float32, len(ids))
			for i := range ids {
				ids[i] = uint64(i * 5)
				rows[i] = []float32{float32(i), 1, 2, 3}
			}
			ops := []struct {
				name string
				run  func()
			}{
				{"Fetch", func() {
					out := st.Fetch(ids)
					Rows(st.Dim()).PutN(out)
					PutRowSlice(out)
				}},
				{"Write", func() { st.Write(ids, rows) }},
				{"ReadFetch", func() {
					out, err := st.ReadFetch(ids, nil)
					if err != nil {
						t.Fatal(err)
					}
					Rows(st.Dim()).PutN(out)
					PutRowSlice(out)
				}},
			}
			for _, op := range ops {
				for i := 0; i < 10; i++ {
					op.run()
				}
				if avg := testing.AllocsPerRun(100, op.run); avg != 0 {
					t.Errorf("%s: %.1f allocs/op, want 0", op.name, avg)
				}
			}
		})
	}
}
