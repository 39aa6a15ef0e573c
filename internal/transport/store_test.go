package transport

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/embed"
)

// The Store conformance suite: the tier client is a carrier, never a
// semantic layer. Whatever the fabric (inproc, sim, tcp) and whatever the
// tier width S, the same request stream must return the same rows in the
// same order and leave the same logical state — so an S-server ShardedStore
// is certified against a plain one-server reference, exactly the way the
// engines' differential tests certify fabrics against the baseline.

// storeCase builds one S-server tier and a Store onto it. cleanup tears
// down any real resources (sockets, server loops) behind it.
type storeCase struct {
	name  string
	build func(t *testing.T, S int) (store Store, tier []*embed.Server, cleanup func())
}

// testTier builds S identically-seeded servers (deterministic splitting).
func testTier(S int) []*embed.Server {
	tier := make([]*embed.Server, S)
	for i := range tier {
		tier[i] = embed.NewServer(3, 4, 11, 0.1)
	}
	return tier
}

// storeOverTier wraps each server of tier in child and assembles the store.
func storeOverTier(tier []*embed.Server, child func(*embed.Server) Store) Store {
	children := make([]Store, len(tier))
	for i, srv := range tier {
		children[i] = child(srv)
	}
	if len(children) == 1 {
		return children[0]
	}
	return NewShardedStore(children)
}

func storeCases() []storeCase {
	return []storeCase{
		{"inproc", func(t *testing.T, S int) (Store, []*embed.Server, func()) {
			tier := testTier(S)
			return storeOverTier(tier, func(s *embed.Server) Store { return NewInProcess(s) }), tier, func() {}
		}},
		{"sim", func(t *testing.T, S int) (Store, []*embed.Server, func()) {
			tier := testTier(S)
			return storeOverTier(tier, func(s *embed.Server) Store {
				return NewSimNet(s, 200*time.Microsecond, 0)
			}), tier, func() {}
		}},
		{"tcp", func(t *testing.T, S int) (Store, []*embed.Server, func()) {
			tier := testTier(S)
			children := make([]Store, S)
			links := make([]*TCPLink, S)
			joins := make([]func(), S)
			for i, srv := range tier {
				addr, join := startEmbedServer(t, srv)
				joins[i] = join
				link, err := DialTCPLink(addr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				links[i] = link
				children[i] = link
			}
			var store Store = children[0]
			if S > 1 {
				store = NewShardedStore(children)
			}
			return store, tier, func() {
				store.Shutdown()
				for _, l := range links {
					l.Close()
				}
				for _, join := range joins {
					join()
				}
			}
		}},
	}
}

// TestStatsAdd pins the field-wise accumulator every aggregation path uses.
func TestStatsAdd(t *testing.T) {
	a := Stats{Fetches: 1, Writes: 2, RowsFetched: 3, RowsWritten: 4,
		BytesFetched: 5, BytesWritten: 6, SimulatedDelay: 7 * time.Millisecond}
	b := Stats{Fetches: 10, Writes: 20, RowsFetched: 30, RowsWritten: 40,
		BytesFetched: 50, BytesWritten: 60, SimulatedDelay: 70 * time.Millisecond}
	a.Add(b)
	want := Stats{Fetches: 11, Writes: 22, RowsFetched: 33, RowsWritten: 44,
		BytesFetched: 55, BytesWritten: 66, SimulatedDelay: 77 * time.Millisecond}
	if a != want {
		t.Fatalf("Add: got %+v, want %+v", a, want)
	}
}

// TestStoreConformance runs the full tier contract over every fabric × tier
// width: fetched rows arrive in request order with reference values, writes
// land on the owning server only, and the tier operations (fingerprint,
// Certify, per-server stats) certify the merged state against the S=1
// reference.
func TestStoreConformance(t *testing.T) {
	// ids span all owners of every S in the sweep, interleaved so no
	// sub-batch is contiguous in the request.
	ids := []uint64{7, 0, 13, 2, 9, 4, 1, 18, 3, 6, 11, 5}
	for _, tc := range storeCases() {
		for _, S := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s_S%d", tc.name, S), func(t *testing.T) {
				store, tier, cleanup := tc.build(t, S)
				defer cleanup()

				ref := embed.NewServer(3, 4, 11, 0.1)
				refStore := NewInProcess(ref)

				rows := store.Fetch(ids)
				refRows := refStore.Fetch(ids)
				if len(rows) != len(ids) {
					t.Fatalf("fetch returned %d rows for %d ids", len(rows), len(ids))
				}
				for i := range rows {
					for j := range rows[i] {
						if rows[i][j] != refRows[i][j] {
							t.Fatalf("row %d (id %d) differs from reference at col %d", i, ids[i], j)
						}
					}
					rows[i][0] = float32(i) + 100
					refRows[i][0] = float32(i) + 100
				}
				store.Write(ids, rows)
				refStore.Write(ids, refRows)

				// Tier state merges back to the reference, and certifies
				// against it over the links.
				merged, err := embed.MergeTier(tier)
				if err != nil {
					t.Fatalf("merge tier: %v", err)
				}
				if d := embed.Diff(ref, merged); len(d) != 0 {
					t.Fatalf("tier state diverged from reference at ids %v", d)
				}
				if cert, err := Certify(store, ref); err != nil || len(cert.Differ) != 0 {
					t.Fatalf("tier certificate %+v, err %v", cert, err)
				}
				if fp, want := store.Fingerprint(), ref.Fingerprint(); fp != want {
					t.Fatalf("tier fingerprint %x != reference %x", fp, want)
				}

				// Rows must land only on their owning server.
				for s, srv := range tier {
					for _, id := range srv.MaterializedIDs() {
						if core.OwnerOf(id, S) != s {
							t.Fatalf("server %d materialized id %d owned by server %d", s, id, core.OwnerOf(id, S))
						}
					}
				}

				// Aggregate row accounting is fabric- and width-independent;
				// per-server snapshots cover the tier and sum to the total.
				st := store.Stats()
				if st.RowsFetched != int64(len(ids)) || st.RowsWritten != int64(len(ids)) {
					t.Fatalf("row accounting: %+v", st)
				}
				perServer := store.ServerStats()
				if len(perServer) != S {
					t.Fatalf("ServerStats has %d entries for %d servers", len(perServer), S)
				}
				var sum Stats
				for s, ss := range perServer {
					if S > 1 && ss.Fetches == 0 {
						t.Fatalf("server %d saw no fetches; the scatter never reached it", s)
					}
					sum.Add(ss)
				}
				if sum != st {
					t.Fatalf("per-server stats sum %+v != aggregate %+v", sum, st)
				}
			})
		}
	}
}

// laggyStore delays every data-path call by a fixed amount — a slow server
// in an otherwise fast tier.
type laggyStore struct {
	Link
	delay time.Duration
}

func (l *laggyStore) TryFetch(ids []uint64) ([][]float32, error) {
	time.Sleep(l.delay)
	return l.Link.TryFetch(ids)
}

func (l *laggyStore) TryWrite(ids []uint64, rows [][]float32) error {
	time.Sleep(l.delay)
	return l.Link.TryWrite(ids, rows)
}

// TestShardedStoreGatherOrder pins the gather half of the contract under
// deliberately reordered shard replies: server 0 answers last by a wide
// margin, so sub-batch completions arrive in reverse shard order — the
// assembled rows must still be in request order with per-id values.
func TestShardedStoreGatherOrder(t *testing.T) {
	const S = 4
	tier := testTier(S)
	children := make([]Store, S)
	for i, srv := range tier {
		// Server 0 is slowest, server S-1 fastest: completions reverse.
		children[i] = &laggyStore{Link: NewInProcess(srv), delay: time.Duration(S-i) * 10 * time.Millisecond}
	}
	store := NewShardedStore(children)

	// Stamp every row with its id so misplacement is detectable.
	var ids []uint64
	for id := uint64(0); id < 32; id++ {
		ids = append(ids, id)
	}
	rows := store.Fetch(ids)
	for i, id := range ids {
		rows[i][0] = float32(id) + 0.5
	}
	store.Write(ids, rows)

	// Re-fetch in a scrambled order; each row must carry its own stamp.
	scrambled := []uint64{31, 2, 17, 0, 25, 6, 3, 12, 9, 30, 1, 23, 4, 19}
	got := store.Fetch(scrambled)
	for i, id := range scrambled {
		if got[i][0] != float32(id)+0.5 {
			t.Fatalf("position %d (id %d) carries stamp %v — shard replies were gathered out of order",
				i, id, got[i][0])
		}
	}
}

// TestShardedStoreValidation: construction rejects width mismatches and
// empty tiers.
func TestShardedStoreValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty tier", func() { NewShardedStore(nil) })
	a := NewInProcess(embed.NewServer(1, 4, 1, 0.1))
	b := NewInProcess(embed.NewServer(1, 8, 1, 0.1))
	mustPanic("dim mismatch", func() { NewShardedStore([]Store{a, b}) })
	mustPanic("write length mismatch", func() {
		NewShardedStore([]Store{a}).Write([]uint64{1}, nil)
	})
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "server 1") || !strings.Contains(msg, "storeOnly") {
				t.Fatalf("Store-only child: panic %q does not name the server and its type", msg)
			}
		}()
		NewTier([]Store{a, storeOnly{a}}, TierOptions{})
	}()
}

// TestShardedStoreOverServeEmbed is the fully remote tier in one test: S
// server loops over real listeners, the sharded store over S TCPLinks, and
// a shutdown that stops every server process loop.
func TestShardedStoreOverServeEmbed(t *testing.T) {
	const S = 2
	tier := testTier(S)
	children := make([]Store, S)
	links := make([]*TCPLink, S)
	serveDone := make([]chan error, S)
	for i, srv := range tier {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		serveDone[i] = done
		go func(srv *embed.Server) { done <- ServeEmbed(lis, srv) }(srv)
		if links[i], err = DialTCPLink(lis.Addr().String(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		children[i] = links[i]
	}
	store := NewShardedStore(children)
	rows := store.Fetch([]uint64{0, 1, 2, 3})
	rows[0][0] = 42
	store.Write([]uint64{0}, rows[:1])
	if got := tier[0].Get(0); got[0] != 42 {
		t.Fatalf("write did not land on owning server: %v", got)
	}
	store.Shutdown()
	for _, l := range links {
		l.Close()
	}
	for i, done := range serveDone {
		if err := <-done; err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
}

// panicStore is a shard whose data path is down; inst selects whether the
// tier sees it as an in-process (serial scatter) or remote (goroutine
// fan-out) child, so both scatter paths get exercised.
type panicStore struct {
	Link
	inst bool
}

func (p *panicStore) TryFetch(ids []uint64) ([][]float32, error) { panic("transport test: shard down") }

func (p *panicStore) instant() bool { return p.inst }

// TestShardedStoreScratchReturnedOnChildPanic: a shard RPC failing
// mid-gather must propagate to the caller AND return every pooled buffer
// the fetch took out — the scatter scratch, the result header, and the
// arena rows the healthy shards already gathered into it. A panicking
// Fetch that leaked any of them would starve the pools across failover
// exercises. Exercised on both the serial (instant children) and
// concurrent (remote children) scatter paths; the concurrent leg also pins
// the ShardPanic wrapper that keeps the originating server index and its
// goroutine stack attached to the re-raised panic.
func TestShardedStoreScratchReturnedOnChildPanic(t *testing.T) {
	for _, inst := range []bool{true, false} {
		tier := testTier(2)
		children := []Store{
			NewInProcess(tier[0]),
			&panicStore{Link: NewInProcess(tier[1]), inst: inst},
		}
		st := NewShardedStore(children)
		if st.instantChildren != inst {
			t.Fatalf("inst=%v: tier instantChildren=%v", inst, st.instantChildren)
		}

		// Warm the pools with a fetch that avoids the dead shard (even ids
		// hash to shard 0), then return everything — so the panicking fetch
		// below is served entirely from the free lists and the leak check
		// can demand exact count preservation.
		warm := st.Fetch([]uint64{0, 2})
		Rows(st.Dim()).PutN(warm)
		PutRowSlice(warm)
		arena := Rows(st.Dim())
		arena.mu.Lock()
		rowsFree := len(arena.free)
		arena.mu.Unlock()
		rowSlicePool.mu.Lock()
		headersFree := len(rowSlicePool.free)
		rowSlicePool.mu.Unlock()

		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("inst=%v: child panic did not propagate", inst)
				}
				if !inst {
					// The concurrent scatter must attribute the crash: shard
					// index plus the originating goroutine's stack.
					sp, ok := p.(*ShardPanic)
					if !ok {
						t.Fatalf("concurrent scatter re-panicked %T, want *ShardPanic", p)
					}
					if sp.Server != 1 {
						t.Fatalf("ShardPanic names server %d, want 1", sp.Server)
					}
					if len(sp.Stack) == 0 || !bytes.Contains(sp.Stack, []byte("goroutine")) {
						t.Fatalf("ShardPanic carries no goroutine stack: %q", sp.Stack)
					}
					if !strings.Contains(sp.Error(), "shard down") {
						t.Fatalf("ShardPanic message lost the original value: %q", sp.Error())
					}
				}
			}()
			st.Fetch([]uint64{0, 1, 2, 3}) // spans both shards
		}()

		st.scratchMu.Lock()
		n := len(st.scratch)
		st.scratchMu.Unlock()
		if n != 1 {
			t.Fatalf("inst=%v: scratch pool holds %d entries after panicking fetch, want 1", inst, n)
		}
		// Exact pool-count preservation: the result header and shard 0's
		// already-gathered rows went back in the recover path.
		arena.mu.Lock()
		rowsAfter := len(arena.free)
		arena.mu.Unlock()
		rowSlicePool.mu.Lock()
		headersAfter := len(rowSlicePool.free)
		rowSlicePool.mu.Unlock()
		if rowsAfter != rowsFree {
			t.Fatalf("inst=%v: arena free list went %d → %d across a panicking fetch", inst, rowsFree, rowsAfter)
		}
		if headersAfter != headersFree {
			t.Fatalf("inst=%v: row-slice free list went %d → %d across a panicking fetch", inst, headersFree, headersAfter)
		}

		// The tier must stay usable for requests that avoid the dead shard.
		if rows := st.Fetch([]uint64{0, 2}); len(rows) != 2 {
			t.Fatalf("inst=%v: post-panic fetch returned %d rows", inst, len(rows))
		}
	}
}

// faultTier builds an S-server replicated tier over fault-injectable
// children (the exported FaultStore wrapper, shared with the serving
// conformance suite) plus the S=1 reference it must stay equivalent to.
func faultTier(S int, opts TierOptions) (*ShardedStore, []*FaultStore, []*embed.Server, *embed.Server, Store) {
	tier := testTier(S)
	faults := make([]*FaultStore, S)
	children := make([]Store, S)
	for i, srv := range tier {
		faults[i] = NewFaultStore(NewInProcess(srv), i)
		children[i] = faults[i]
	}
	ref := embed.NewServer(3, 4, 11, 0.1)
	return NewTier(children, opts), faults, tier, ref, NewInProcess(ref)
}

// TestStoreFailoverReplicated is the replicated leg of the conformance
// suite: a server dies mid-run under R=2, the tier marks it dead and
// reroutes, and the surviving state still certifies against the S=1
// reference three independent ways — live fingerprint, tier merge, and
// the per-holder certificate.
func TestStoreFailoverReplicated(t *testing.T) {
	const S, R = 3, 2
	var failedOver []int
	st, faults, tier, ref, refStore := faultTier(S, TierOptions{
		Replicate: R,
		Retries:   2,
		Backoff:   time.Millisecond,
		OnFailover: func(server int, cause error) {
			failedOver = append(failedOver, server)
			if cause == nil {
				t.Errorf("server %d condemned with nil cause", server)
			}
		},
	})
	if st.Replicate() != R {
		t.Fatalf("Replicate() = %d, want %d", st.Replicate(), R)
	}

	// step fetches ids from both stores, cross-checks, mutates, and writes
	// back — every fetched row is written, the engines' write-back
	// invariant that makes replica state complete for its partitions.
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

	step([]uint64{0, 1, 2, 3, 4, 5, 10, 13})
	step([]uint64{1, 4, 7, 16})
	faults[1].SetDown(true)              // chaos: server 1 dies mid-run
	step([]uint64{0, 1, 2, 6, 7, 9, 13}) // partition-1 ids now served by server 2
	step([]uint64{4, 10, 19, 22})

	if dead := st.DeadServers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadServers() = %v, want [1]", dead)
	}
	if len(failedOver) != 1 || failedOver[0] != 1 {
		t.Fatalf("OnFailover fired for %v, want exactly [1]", failedOver)
	}
	h := st.TierHealth()
	if h.Servers != S || h.Replicate != R {
		t.Fatalf("TierHealth shape: %+v", h)
	}
	if h.Failovers == 0 {
		t.Fatal("no failovers counted despite post-kill partition-1 reads")
	}
	if h.Retries == 0 {
		t.Fatal("no retries counted despite a failing server RPC")
	}

	// Certification 1: the live wire fingerprint, served for partition 1 by
	// its surviving replica.
	if fp, want := st.Fingerprint(), ref.Fingerprint(); fp != want {
		t.Fatalf("surviving tier fingerprint %x != reference %x", fp, want)
	}
	// Certification 2: merging the surviving servers' in-memory state.
	deadSet := make([]bool, S)
	deadSet[1] = true
	merged, err := embed.MergeTierReplicated(tier, R, deadSet)
	if err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(ref, merged); len(d) != 0 {
		t.Fatalf("surviving merge differs from reference at %v", d)
	}
	// Certification 3: the per-holder certificate, which must skip the dead
	// server.
	if cert, err := Certify(st, ref); err != nil || len(cert.Differ) != 0 {
		t.Fatalf("surviving tier certificate %+v, err %v", cert, err)
	}
}

// TestStoreFailoverUnreplicatedFailsLoudly: with R=1 a dead server is
// unrecoverable; the tier must raise an attributed TierError — partition,
// server, replication factor, cause — through OnLost and the panic, on both
// scatter paths, and keep serving the partitions it still has.
func TestStoreFailoverUnreplicatedFailsLoudly(t *testing.T) {
	for _, inst := range []bool{true, false} {
		var lost []*TierError
		st, faults, _, _, _ := faultTier(2, TierOptions{
			Replicate: 1,
			Retries:   2,
			Backoff:   time.Millisecond,
			OnLost:    func(e *TierError) { lost = append(lost, e) },
		})
		// The children are in-process either way; force the scatter path
		// directly so both the serial and the goroutine fan-out legs raise
		// the same attributed error.
		st.instantChildren = inst

		if rows := st.Fetch([]uint64{0, 1, 2, 3}); len(rows) != 4 {
			t.Fatalf("healthy fetch returned %d rows", len(rows))
		}
		faults[1].SetDown(true)

		func() {
			defer func() {
				e, ok := AsTierError(recover())
				if !ok {
					t.Fatalf("inst=%v: no TierError in panic", inst)
				}
				if e.Op != "fetch" || e.Partition != 1 || e.Server != 1 || e.Replicate != 1 {
					t.Fatalf("inst=%v: misattributed TierError: %+v", inst, e)
				}
				if e.Cause == nil || !strings.Contains(e.Error(), "server 1 down") {
					t.Fatalf("inst=%v: TierError lost its cause: %v", inst, e)
				}
			}()
			st.Fetch([]uint64{0, 1, 2, 3})
			t.Fatalf("inst=%v: fetch through a dead unreplicated server returned", inst)
		}()
		if len(lost) != 1 {
			t.Fatalf("inst=%v: OnLost fired %d times, want 1", inst, len(lost))
		}

		// Writes to the lost partition are just as loud.
		func() {
			defer func() {
				e, ok := AsTierError(recover())
				if !ok || e.Op != "write" || e.Partition != 1 {
					t.Fatalf("inst=%v: write loss misattributed: %+v", inst, e)
				}
			}()
			rows := [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}}
			st.Write([]uint64{0, 1}, rows)
			t.Fatalf("inst=%v: write through a dead unreplicated server returned", inst)
		}()

		// The healthy partition keeps working after the loss.
		if rows := st.Fetch([]uint64{0, 2, 4}); len(rows) != 3 {
			t.Fatalf("inst=%v: healthy-partition fetch returned %d rows", inst, len(rows))
		}
	}
}

// TestFingerprintIgnoresUnownedRows pins the tier certificate to the rows
// each partition's holders own: a stale copy of id 1 left on server 0 (a
// shed the settle cleanup skipped) must not move the fingerprint, at R=1
// — where server 0 is outside id 1's ring — as at R=2.
func TestFingerprintIgnoresUnownedRows(t *testing.T) {
	for _, R := range []int{1, 2} {
		t.Run(fmt.Sprintf("R%d", R), func(t *testing.T) {
			tier := testTier(2)
			st := NewTier([]Store{NewInProcess(tier[0]), NewInProcess(tier[1])}, TierOptions{Replicate: R})
			ref := NewInProcess(embed.NewServer(3, 4, 11, 0.1))
			ids := []uint64{0, 1, 2, 3, 4, 5}
			rows := make([][]float32, len(ids))
			for i := range rows {
				rows[i] = []float32{float32(i), 1, 2, 3}
			}
			st.Write(ids, rows)
			ref.Write(ids, rows)
			tier[0].Write([]uint64{1}, [][]float32{{9, 9, 9, 9}})
			if got, want := st.Fingerprint(), ref.Fingerprint(); got != want {
				t.Fatalf("fingerprint %016x counts server 0's unowned copy of id 1; reference %016x", got, want)
			}
		})
	}
}
