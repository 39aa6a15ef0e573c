package embed

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// tableIDs returns tab's materialized ids, ascending.
func tableIDs(tab *Table) []uint64 {
	var ids []uint64
	tab.walk(func(id uint64, _ []float32) { ids = append(ids, id) })
	slices.Sort(ids)
	return ids
}

func TestRowInitDeterministic(t *testing.T) {
	a := NewTable(8, 42, 0.1)
	b := NewTable(8, 42, 0.1)
	ra := make([]float32, 8)
	rb := make([]float32, 8)
	for id := uint64(0); id < 100; id++ {
		a.Get(id, ra)
		b.Get(id, rb)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("id %d col %d: %v vs %v", id, i, ra[i], rb[i])
			}
		}
	}
}

func TestRowInitVariesWithSeedAndID(t *testing.T) {
	a := NewTable(8, 1, 0.1)
	b := NewTable(8, 2, 0.1)
	ra := make([]float32, 8)
	rb := make([]float32, 8)
	a.Get(5, ra)
	b.Get(5, rb)
	same := true
	for i := range ra {
		if ra[i] != rb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must give different rows")
	}
	a.Get(6, rb)
	same = true
	for i := range ra {
		if ra[i] != rb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different ids must give different rows")
	}
}

func TestRowInitBounded(t *testing.T) {
	if err := quick.Check(func(id uint64, col uint8, dim uint8) bool {
		d := int(dim%64) + 1
		v := rowInit(7, id, int(col)%d, d, 0.05)
		return v >= -0.05 && v < 0.05
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	tab := NewTable(4, 1, 0.1)
	want := []float32{1, 2, 3, 4}
	tab.Set(99, want)
	got := make([]float32, 4)
	tab.Get(99, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if tab.NumMaterialized() != 1 {
		t.Fatalf("materialized=%d", tab.NumMaterialized())
	}
}

func TestServerShardingConsistent(t *testing.T) {
	s := NewServer(4, 8, 11, 0.1)
	for id := uint64(0); id < 64; id++ {
		if s.ShardOf(id) != int(id%4) {
			t.Fatalf("shard of %d = %d", id, s.ShardOf(id))
		}
	}
}

func TestServerFetchWriteAndStats(t *testing.T) {
	s := NewServer(3, 4, 13, 0.1)
	ids := []uint64{1, 5, 9}
	rows := s.Fetch(ids)
	if len(rows) != 3 || len(rows[0]) != 4 {
		t.Fatalf("bad fetch shape")
	}
	rows[1][0] = 123
	s.Write(ids[1:2], rows[1:2])
	if got := s.Get(5); got[0] != 123 {
		t.Fatalf("write-back lost: %v", got)
	}
	st := s.Stats()
	if st.RowsFetched != 3 || st.RowsWritten != 1 || st.Fetches != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestServerStateIndependentOfShardCount(t *testing.T) {
	// Reproducibility across resharding: row values depend only on ID.
	a := NewServer(2, 4, 99, 0.1)
	b := NewServer(7, 4, 99, 0.1)
	for id := uint64(0); id < 50; id++ {
		ra, rb := a.Get(id), b.Get(id)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("id %d differs across shard counts", id)
			}
		}
	}
}

func TestConcurrentFetchWrite(t *testing.T) {
	s := NewServer(4, 8, 31, 0.1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint64, 16)
			for i := range ids {
				ids[i] = uint64(w*16 + i)
			}
			for iter := 0; iter < 50; iter++ {
				rows := s.Fetch(ids)
				for _, r := range rows {
					r[0] += 1
				}
				s.Write(ids, rows)
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.RowsFetched != 8*50*16 || st.RowsWritten != 8*50*16 {
		t.Fatalf("stats after concurrent load: %+v", st)
	}
	// disjoint id ranges: each row got exactly 50 increments
	base := NewServer(4, 8, 31, 0.1)
	for id := uint64(0); id < 128; id++ {
		want := base.Get(id)[0] + 50
		got := s.Get(id)[0]
		if diff := got - want; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("id %d: got %v want %v", id, got, want)
		}
	}
}

func TestFetchReturnsCopies(t *testing.T) {
	s := NewServer(1, 4, 41, 0.1)
	r1 := s.Fetch([]uint64{7})
	r1[0][0] = 555
	r2 := s.Fetch([]uint64{7})
	if r2[0][0] == 555 {
		t.Fatal("Fetch must return copies, not aliases")
	}
}

func TestFetchParallelMatchesSerial(t *testing.T) {
	// Above the parallel threshold the shard-grouped concurrent path must
	// return bit-identical rows in the same order as the row-at-a-time
	// reference, including rows mutated since init.
	s := NewServer(8, 16, 77, 0.1)
	dirty := []uint64{3, 1000, 4097}
	for _, id := range dirty {
		row := make([]float32, 16)
		for i := range row {
			row[i] = float32(id) + float32(i)
		}
		s.Write([]uint64{id}, [][]float32{row})
	}
	ids := make([]uint64, 500)
	for i := range ids {
		ids[i] = uint64(i*37) % 5000
	}
	got := s.Fetch(ids)
	want := s.FetchSerial(ids)
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("id %d col %d: parallel %v serial %v", ids[i], c, got[i][c], want[i][c])
			}
		}
	}
}

func TestWriteParallelVisible(t *testing.T) {
	s := NewServer(8, 4, 5, 0.1)
	n := 300 // above parallelMinRows so the concurrent path runs
	ids := make([]uint64, n)
	rows := make([][]float32, n)
	for i := range ids {
		ids[i] = uint64(i)
		rows[i] = []float32{float32(i), 0, 0, 0}
	}
	s.Write(ids, rows)
	for i := range ids {
		if got := s.Get(ids[i]); got[0] != float32(i) {
			t.Fatalf("id %d: %v", ids[i], got)
		}
	}
}

func TestTableGetSetBatch(t *testing.T) {
	tab := NewTable(4, 9, 0.1)
	ids := []uint64{5, 1, 9, 5}
	dsts := make([][]float32, len(ids))
	for i := range dsts {
		dsts[i] = make([]float32, 4)
	}
	// An index list out of order touches exactly its entries: the
	// positions it skips keep their zeroed buffers.
	tab.GetMany(ids, []int{3, 0}, dsts)
	for _, i := range []int{1, 2} {
		for _, v := range dsts[i] {
			if v != 0 {
				t.Fatalf("GetMany wrote unlisted index %d: %v", i, dsts[i])
			}
		}
	}
	tab.GetMany(ids, []int{1, 2}, dsts)
	one := make([]float32, 4)
	for i, id := range ids {
		tab.Get(id, one)
		for c := range one {
			if dsts[i][c] != one[c] {
				t.Fatalf("GetMany id %d differs from Get", id)
			}
		}
	}
	// Reads never materialize: GetMany touched 5/1/9 but only the written
	// ids may appear, keeping the materialized set identical to the written
	// set (the invariant tier fingerprints rely on under serving load).
	if got := tableIDs(tab); len(got) != 0 {
		t.Fatalf("reads materialized rows: %v", got)
	}
	tab.SetMany([]uint64{1, 7, 9}, []int{2, 0},
		[][]float32{{7, 7, 7, 7}, {6, 6, 6, 6}, {8, 8, 8, 8}}, false)
	tab.Get(9, one)
	if one[0] != 8 {
		t.Fatalf("SetMany lost write: %v", one)
	}
	if got := tableIDs(tab); len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Fatalf("materialized %v, want [1 9]: SetMany wrote an unlisted index", got)
	}
}

func TestServerDiff(t *testing.T) {
	a := NewServer(2, 4, 55, 0.1)
	b := NewServer(3, 4, 55, 0.1) // shard count must not matter
	if d := Diff(a, b); len(d) != 0 {
		t.Fatalf("fresh servers differ: %v", d)
	}
	a.Write([]uint64{10}, [][]float32{{1, 2, 3, 4}})
	b.Write([]uint64{10}, [][]float32{{1, 2, 3, 4}})
	b.Write([]uint64{11}, [][]float32{{9, 9, 9, 9}})
	if d := Diff(a, b); len(d) != 1 || d[0] != 11 {
		t.Fatalf("Diff = %v, want [11]", d)
	}
	// Diff must be read-only: comparing id 11 (materialized only in b)
	// must not materialize it in a.
	if got := a.NumMaterialized(); got != 1 {
		t.Fatalf("Diff materialized rows in its input: %d rows, want 1", got)
	}
}

// TestDiffRows: an export compares with a server's partition by Diff's
// rule — a row materialized on one side only compares as its init — and
// only ids of that partition are compared.
func TestDiffRows(t *testing.T) {
	s := NewServer(2, 4, 55, 0.1)
	other := NewServer(3, 4, 55, 0.1)
	s.Write([]uint64{2, 4, 6, 8, 5}, [][]float32{{1, 1, 1, 1}, {2, 2, 2, 2}, s.Get(6), {4, 4, 4, 4}, {5, 5, 5, 5}})
	other.Write([]uint64{2, 4, 10, 12}, [][]float32{{1, 1, 1, 1}, {9, 9, 9, 9}, other.Get(10), {7, 7, 7, 7}})
	ids, rows := other.ExportPartIn(0, 2, 0, 1)
	// Partition 0 of 2 holds the even ids: 2 agrees, 4 differs, 6 and 10
	// are init on the side that holds them, 8 and 12 are written on one
	// side only; 5 is outside the partition.
	differ, compared := s.DiffRows(0, 2, ids, rows)
	if !slices.Equal(differ, []uint64{4, 8, 12}) || compared != 6 {
		t.Fatalf("DiffRows = %v over %d ids, want [4 8 12] over 6", differ, compared)
	}
	if d := Diff(s, other); !slices.Equal(d, []uint64{4, 5, 8, 12}) {
		t.Fatalf("Diff = %v, want [4 5 8 12]", d)
	}
	if s.NumMaterialized() != 5 || other.NumMaterialized() != 4 {
		t.Fatal("DiffRows materialized rows")
	}
}

func TestServerFingerprint(t *testing.T) {
	a := NewServer(2, 4, 55, 0.1)
	b := NewServer(3, 4, 55, 0.1) // sharding-independent like Diff
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fresh equal servers fingerprint differently")
	}
	a.Write([]uint64{10}, [][]float32{{1, 2, 3, 4}})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("diverged servers share a fingerprint")
	}
	b.Write([]uint64{10}, [][]float32{{1, 2, 3, 4}})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("re-converged servers fingerprint differently")
	}
	// A single flipped bit must change the hash.
	b.Write([]uint64{10}, [][]float32{{1, 2, 3, 4.0000005}})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("bit flip not detected")
	}
	// Fingerprint must be read-only, like Diff.
	before := a.NumMaterialized()
	a.Fingerprint()
	if a.NumMaterialized() != before {
		t.Fatal("Fingerprint materialized rows")
	}
}

// FetchSerial is the pre-refactor row-at-a-time fetch path (one shard lock
// acquisition per row, no concurrency). It is retained as the reference
// implementation for differential tests and as the benchmark baseline the
// shard-grouped Fetch is measured against.
func (s *Server) FetchSerial(ids []uint64) [][]float32 {
	flat := make([]float32, len(ids)*s.Dim)
	out := make([][]float32, len(ids))
	for i, id := range ids {
		row := flat[i*s.Dim : (i+1)*s.Dim]
		s.shards[s.ShardOf(id)].Get(id, row)
		out[i] = row
	}
	s.rowsFetched.Add(int64(len(ids)))
	s.fetches.Add(1)
	return out
}

// TestTableGetManyMissesAllocateNothing gates the fetch hot path on rows
// never written: GetMany compacts its misses into the caller's index list
// instead of collecting them in a list of its own.
func TestTableGetManyMissesAllocateNothing(t *testing.T) {
	tab := NewTable(8, 3, 0.1)
	ids := make([]uint64, 64)
	dsts := make([][]float32, len(ids))
	for i := range ids {
		ids[i] = uint64(1000 + i)
		dsts[i] = make([]float32, 8)
	}
	for i := 0; i < len(ids); i += 3 {
		tab.Set(ids[i], dsts[i]) // a third are hits
	}
	idxs := make([]int, len(ids))
	want := make([]float32, 8)
	got := testing.AllocsPerRun(20, func() {
		for i := range idxs {
			idxs[i] = len(idxs) - 1 - i
		}
		tab.GetMany(ids, idxs, dsts)
	})
	if got != 0 {
		t.Errorf("GetMany with misses allocates %v per call, want 0", got)
	}
	for i, id := range ids {
		tab.Get(id, want)
		if !slices.Equal(dsts[i], want) {
			t.Fatalf("row %d: GetMany %v, Get %v", id, dsts[i], want)
		}
	}
}
