package data

import (
	"reflect"
	"testing"
	"testing/quick"

	"bagpipe/internal/tensor"
)

// smallSpec is a fast test dataset with realistic skew.
func smallSpec() *Spec {
	return &Spec{
		Name:           "test",
		NumExamples:    1 << 20,
		NumCategorical: 8,
		NumNumeric:     4,
		TableSizes:     powerLawTableSizes(8, 100_000),
		EmbDim:         8,
		Dist:           NewHotTail(0.001, 0.9, 1.05),
	}
}

func TestSpecPresetsMatchTable1(t *testing.T) {
	cases := []struct {
		spec      *Spec
		cat, num  int
		totalRows int64
		dim       int
	}{
		{CriteoKaggle(), 26, 13, 33_760_000, 48},
		{Avazu(), 21, 1, 9_400_000, 48},
		{CriteoTerabyte(), 26, 13, 882_770_000, 16},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", c.spec.Name, err)
		}
		if c.spec.NumCategorical != c.cat || c.spec.NumNumeric != c.num {
			t.Fatalf("%s feature counts wrong", c.spec.Name)
		}
		if got := c.spec.TotalRows(); got != c.totalRows {
			t.Fatalf("%s rows=%d want %d", c.spec.Name, got, c.totalRows)
		}
		if c.spec.EmbDim != c.dim {
			t.Fatalf("%s dim=%d want %d", c.spec.Name, c.spec.EmbDim, c.dim)
		}
	}
	// Table-1 table sizes in bytes: Kaggle ≈6 GB, Avazu ≈1.7 GB, TB ≈56.5 GB
	// at fp32 dim 16 (the paper's 157 GB figure includes optimizer state).
	kag := float64(CriteoKaggle().TableSizeBytes()) / (1 << 30)
	if kag < 5.5 || kag > 6.5 {
		t.Fatalf("kaggle table bytes %.2f GB, want ≈6", kag)
	}
}

func TestTableOffsetsAreDisjoint(t *testing.T) {
	s := smallSpec()
	offs := s.TableOffsets()
	for i := 1; i < len(offs); i++ {
		if offs[i] != offs[i-1]+uint64(s.TableSizes[i-1]) {
			t.Fatalf("offset %d not contiguous", i)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	s := smallSpec()
	s.TableSizes = s.TableSizes[:3]
	if s.Validate() == nil {
		t.Fatal("mismatched table count not caught")
	}
	s2 := smallSpec()
	s2.EmbDim = 0
	if s2.Validate() == nil {
		t.Fatal("zero dim not caught")
	}
	s3 := smallSpec()
	s3.Dist = nil
	if s3.Validate() == nil {
		t.Fatal("nil dist not caught")
	}
}

func TestPowerLawTableSizesSumAndMin(t *testing.T) {
	sizes := powerLawTableSizes(26, 33_760_000)
	var sum int64
	for _, s := range sizes {
		if s < 3 {
			t.Fatalf("table smaller than 3: %d", s)
		}
		sum += s
	}
	if sum < 33_760_000 {
		t.Fatalf("sum=%d want >= 33760000", sum)
	}
	if sizes[0] < sizes[len(sizes)-1] {
		t.Fatal("sizes should be descending-ish (head table largest)")
	}
}

func TestBatchDeterminism(t *testing.T) {
	g1 := NewGenerator(smallSpec(), 7)
	g2 := NewGenerator(smallSpec(), 7)
	b1 := g1.Batch(5, 64)
	b2 := g2.Batch(5, 64)
	if len(b1.Examples) != len(b2.Examples) {
		t.Fatal("sizes differ")
	}
	for i := range b1.Examples {
		e1, e2 := b1.Examples[i], b2.Examples[i]
		if e1.Label != e2.Label {
			t.Fatalf("labels differ at %d", i)
		}
		for j := range e1.Cat {
			if e1.Cat[j] != e2.Cat[j] {
				t.Fatalf("cat ids differ at %d/%d", i, j)
			}
		}
		for j := range e1.Dense {
			if e1.Dense[j] != e2.Dense[j] {
				t.Fatalf("dense differ at %d/%d", i, j)
			}
		}
	}
}

// TestBatchIntoMatchesBatch: a batch filled into a recycled one, last
// filled larger (or smaller), equals a fresh batch of the same index and
// size, and a refill of a batch no smaller allocates nothing.
func TestBatchIntoMatchesBatch(t *testing.T) {
	g := NewGenerator(smallSpec(), 7)
	b := g.Batch(0, 256)
	for i, size := range []int{64, 256, 32, 200, 200} {
		b = g.BatchInto(b, i+1, size)
		if want := g.Batch(i+1, size); !reflect.DeepEqual(b, want) {
			t.Fatalf("batch %d of %d examples differs from a fresh one", i+1, size)
		}
	}
	if n := testing.AllocsPerRun(10, func() { b = g.BatchInto(b, 9, 128) }); n != 0 {
		t.Errorf("refilling a batch allocates %v objects", n)
	}
}

func TestBatchesDifferAcrossIndices(t *testing.T) {
	g := NewGenerator(smallSpec(), 7)
	b1 := g.Batch(0, 32)
	b2 := g.Batch(1, 32)
	same := true
	for i := range b1.Examples {
		for j := range b1.Examples[i].Cat {
			if b1.Examples[i].Cat[j] != b2.Examples[i].Cat[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different batch indices should generate different data")
	}
}

func TestIDsWithinTableRanges(t *testing.T) {
	s := smallSpec()
	g := NewGenerator(s, 3)
	offs := s.TableOffsets()
	b := g.Batch(0, 256)
	for _, ex := range b.Examples {
		for c, id := range ex.Cat {
			lo := offs[c]
			hi := lo + uint64(s.TableSizes[c])
			if id < lo || id >= hi {
				t.Fatalf("feature %d id %d outside [%d,%d)", c, id, lo, hi)
			}
		}
	}
}

func TestUniqueIDsSortedAndDeduped(t *testing.T) {
	g := NewGenerator(smallSpec(), 3)
	b := g.Batch(0, 512)
	ids := b.UniqueIDs()
	if len(ids) == 0 || len(ids) > b.TotalAccesses() {
		t.Fatalf("bad unique count %d (accesses %d)", len(ids), b.TotalAccesses())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ids not strictly increasing")
		}
	}
}

func TestHotTailSkewMatchesFig3(t *testing.T) {
	// With hotShare=0.9 and hotFrac=0.001, ~90% of accesses must land in
	// the top ~0.1% of distinct embeddings, as in Figure 3.
	g := NewGenerator(smallSpec(), 11)
	p := Profile(g, 50, 512)
	cdf := p.CDFAt(0.01) // top 1% of distinct accessed ids
	if cdf < 0.85 {
		t.Fatalf("top-1%% CDF=%.3f, want >=0.85 (skew missing)", cdf)
	}
	tail := p.CDFAt(1.0)
	if tail < 0.999 {
		t.Fatalf("full CDF=%.3f, want 1", tail)
	}
}

func TestUniformHasNoSkew(t *testing.T) {
	s := smallSpec().WithDist(Uniform{})
	g := NewGenerator(s, 11)
	p := Profile(g, 30, 512)
	if cdf := p.CDFAt(0.01); cdf > 0.2 {
		t.Fatalf("uniform top-1%% CDF=%.3f, should be small", cdf)
	}
}

func TestZipfAlphaIncreasesSkew(t *testing.T) {
	low := NewGenerator(smallSpec().WithDist(NewZipf(1.0)), 5)
	high := NewGenerator(smallSpec().WithDist(NewZipf(3.0)), 5)
	pl := Profile(low, 20, 256)
	ph := Profile(high, 20, 256)
	// compare the share of accesses captured by a fixed number of top IDs
	// (one per table): higher alpha must concentrate more mass there.
	if ph.TopShare(8) <= pl.TopShare(8) {
		t.Fatalf("alpha=3 top-8 share (%.3f) should exceed alpha=1 (%.3f)",
			ph.TopShare(8), pl.TopShare(8))
	}
}

func TestZipfRankBounds(t *testing.T) {
	rng := tensor.NewRNG(1)
	if err := quick.Check(func(nRaw uint16, aRaw uint8) bool {
		n := int64(nRaw%1000) + 1
		alpha := 1 + float64(aRaw%40)/10
		k := zipfRank(rng, n, alpha)
		return k >= 0 && k < n
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHotTailSampleBounds(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := NewHotTail(0.001, 0.9, 1.05)
	for i := 0; i < 10000; i++ {
		k := d.Sample(rng, 1000)
		if k < 0 || k >= 1000 {
			t.Fatalf("sample %d out of range", k)
		}
	}
	// tiny tables must still work
	for i := 0; i < 100; i++ {
		if k := d.Sample(rng, 3); k < 0 || k >= 3 {
			t.Fatalf("tiny table sample %d out of range", k)
		}
	}
}

func TestStaticCacheHitRateDropsWithBatchSize(t *testing.T) {
	// Figure 4: as the batch grows, the unique-access hit rate of a static
	// top-0.1% cache falls.
	g := NewGenerator(smallSpec(), 13)
	p := Profile(g, 30, 1024)
	cached := p.TopIDs(p.NumDistinct() / 100) // top 1% of accessed ids
	small := StaticCacheHitRate(g, cached, 100, 10, 64)
	big := StaticCacheHitRate(g, cached, 100, 10, 2048)
	if big.HitRate >= small.HitRate {
		t.Fatalf("hit rate should fall with batch size: bs64=%.3f bs2048=%.3f",
			small.HitRate, big.HitRate)
	}
	if small.HitRate <= 0 || small.HitRate > 1 {
		t.Fatalf("hit rate out of range: %v", small.HitRate)
	}
}

func TestDriftingDegradesStaticCache(t *testing.T) {
	// §2.3: a cache frozen on day-1 popularity loses hit rate over time.
	base := NewHotTail(0.001, 0.9, 1.05)
	spec := smallSpec().WithDist(NewDrifting(base, 2000, 37))
	g := NewGenerator(spec, 17)
	p := Profile(g, 20, 256)
	cached := p.TopIDs(p.NumDistinct() / 50)
	early := StaticCacheHitRate(g, cached, 0, 10, 256)
	late := StaticCacheHitRate(g, cached, 500, 10, 256)
	if late.HitRate >= early.HitRate {
		t.Fatalf("drift should degrade the static cache: early=%.3f late=%.3f",
			early.HitRate, late.HitRate)
	}
}

func TestScaledSpec(t *testing.T) {
	s := CriteoKaggle().Scaled(1000)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalRows() >= CriteoKaggle().TotalRows() {
		t.Fatal("scaling should shrink tables")
	}
	if s.NumCategorical != 26 {
		t.Fatal("scaling must preserve feature layout")
	}
}

func TestLabelsAreLearnableSignal(t *testing.T) {
	// the hidden model must produce a non-degenerate label distribution
	g := NewGenerator(smallSpec(), 29)
	b := g.Batch(0, 2048)
	var pos int
	for _, ex := range b.Examples {
		if ex.Label == 1 {
			pos++
		}
	}
	frac := float64(pos) / float64(b.Size())
	if frac < 0.05 || frac > 0.95 {
		t.Fatalf("degenerate label distribution: %.3f positive", frac)
	}
}

func TestNumBatches(t *testing.T) {
	g := NewGenerator(smallSpec(), 1)
	if n := g.NumBatches(1024); n != (1<<20)/1024 {
		t.Fatalf("NumBatches=%d", n)
	}
}

// TableSizeBytes returns the embedding-table footprint in bytes at 4 bytes
// per element (float32), the figure Table 1 of the paper reports.
func (s *Spec) TableSizeBytes() int64 {
	return s.TotalRows() * int64(s.EmbDim) * 4
}
