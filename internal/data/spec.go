// Package data provides the synthetic click-log workloads the reproduction
// trains and measures on. The real Criteo Kaggle, Avazu, and Criteo
// Terabyte datasets are not redistributable (and Terabyte is 157 GB of
// embeddings alone, per Table 1 of the paper), so this package generates
// deterministic synthetic streams with the same *shape*: per-dataset
// example counts, categorical/numeric feature counts, total embedding-table
// rows, embedding dimensions, and — critically for Bagpipe — the heavily
// skewed, long-tailed embedding access distribution of Figure 3 (~90% of
// accesses from ~0.1% of embeddings).
//
// Generation is stateless: batch i is a pure function of (spec, seed, i),
// so the Oracle Cacher's lookahead and the trainers can both walk the same
// stream independently, exactly like re-reading a dataset from storage.
package data

import (
	"fmt"

	"bagpipe/internal/tensor"
)

// Spec describes a dataset: its size, feature layout, and embedding tables.
type Spec struct {
	Name           string
	NumExamples    int64
	NumCategorical int
	NumNumeric     int
	TableSizes     []int64 // rows per categorical feature's embedding table
	EmbDim         int     // embedding vector width
	Dist           Distribution
}

// TotalRows returns the total number of embedding rows across all tables.
func (s *Spec) TotalRows() int64 {
	var n int64
	for _, t := range s.TableSizes {
		n += t
	}
	return n
}

// TableOffsets returns the global-ID offset of each table: the ID of table
// t row r is TableOffsets()[t] + r. Global IDs give the Oracle Cacher and
// the embedding servers a single flat keyspace.
func (s *Spec) TableOffsets() []uint64 {
	offs := make([]uint64, len(s.TableSizes))
	var acc uint64
	for i, t := range s.TableSizes {
		offs[i] = acc
		acc += uint64(t)
	}
	return offs
}

// Validate reports configuration errors.
func (s *Spec) Validate() error {
	if s.NumCategorical != len(s.TableSizes) {
		return fmt.Errorf("data: %s has %d categorical features but %d table sizes",
			s.Name, s.NumCategorical, len(s.TableSizes))
	}
	if s.EmbDim <= 0 {
		return fmt.Errorf("data: %s has non-positive embedding dim %d", s.Name, s.EmbDim)
	}
	if s.Dist == nil {
		return fmt.Errorf("data: %s has no access distribution", s.Name)
	}
	for i, t := range s.TableSizes {
		if t <= 0 {
			return fmt.Errorf("data: %s table %d has non-positive size %d", s.Name, i, t)
		}
	}
	return nil
}

// powerLawTableSizes splits totalRows across numTables with a power-law
// size profile (a few huge tables, many small ones), which matches the
// published Criteo table-size histograms. Deterministic in its arguments.
func powerLawTableSizes(numTables int, totalRows int64) []int64 {
	weights := make([]float64, numTables)
	var sum float64
	for i := range weights {
		// rank^-1.4 profile: table 0 dominates, tail tables are tiny.
		w := 1.0
		for j := 0; j < i; j++ {
			w *= 0.72
		}
		if w < 1e-6 {
			w = 1e-6
		}
		weights[i] = w
		sum += w
	}
	sizes := make([]int64, numTables)
	var assigned int64
	for i, w := range weights {
		sz := int64(float64(totalRows) * w / sum)
		if sz < 3 { // paper: tables can be as small as 3 rows
			sz = 3
		}
		sizes[i] = sz
		assigned += sz
	}
	// put any rounding remainder in the largest table
	if diff := totalRows - assigned; diff > 0 {
		sizes[0] += diff
	}
	return sizes
}

// CriteoKaggle returns the Criteo-Kaggle-shaped spec from Table 1:
// 39.2M examples, 26 categorical + 13 numeric features, 33.76M embedding
// rows at dim 48 (≈6 GB of tables).
func CriteoKaggle() *Spec {
	return &Spec{
		Name:           "criteo-kaggle",
		NumExamples:    39_200_000,
		NumCategorical: 26,
		NumNumeric:     13,
		TableSizes:     powerLawTableSizes(26, 33_760_000),
		EmbDim:         48,
		Dist:           NewHotTail(0.001, 0.90, 1.05),
	}
}

// Avazu returns the Avazu-shaped spec from Table 1: 40.4M examples,
// 21 categorical + 1 numeric feature, 9.4M rows at dim 48 (≈1.7 GB).
func Avazu() *Spec {
	return &Spec{
		Name:           "avazu",
		NumExamples:    40_400_000,
		NumCategorical: 21,
		NumNumeric:     1,
		TableSizes:     powerLawTableSizes(21, 9_400_000),
		EmbDim:         48,
		Dist:           NewHotTail(0.001, 0.91, 1.05),
	}
}

// CriteoTerabyte returns the Criteo-Terabyte-shaped spec from Table 1:
// 4.37B examples, 26 categorical + 13 numeric features, 882.77M rows at
// dim 16 (≈157 GB). Never materialized; always streamed.
func CriteoTerabyte() *Spec {
	return &Spec{
		Name:           "criteo-terabyte",
		NumExamples:    4_370_000_000,
		NumCategorical: 26,
		NumNumeric:     13,
		TableSizes:     powerLawTableSizes(26, 882_770_000),
		EmbDim:         16,
		Dist:           NewHotTail(0.001, 0.92, 1.05),
	}
}

// Alibaba returns an Alibaba-user-behavior-shaped spec. The paper uses this
// dataset only in the Figure 4 cache-hit study; the shape here (4 features,
// user/item/category/behavior) follows the public dataset's schema.
func Alibaba() *Spec {
	return &Spec{
		Name:           "alibaba",
		NumExamples:    100_000_000,
		NumCategorical: 4,
		NumNumeric:     1,
		TableSizes:     []int64{980_000, 4_160_000, 9_400, 4},
		EmbDim:         16,
		Dist:           NewHotTail(0.002, 0.70, 1.02),
	}
}

// Scaled returns a copy of s with example count and table sizes divided by
// factor (minimum 3 rows per table), for functional-training runs where the
// full-size tables would not fit or would be needlessly slow. The access
// distribution is preserved.
func (s *Spec) Scaled(factor int64) *Spec {
	if factor <= 0 {
		panic("data: non-positive scale factor")
	}
	c := *s
	c.Name = fmt.Sprintf("%s/%d", s.Name, factor)
	c.NumExamples = max64(s.NumExamples/factor, 1)
	c.TableSizes = make([]int64, len(s.TableSizes))
	for i, t := range s.TableSizes {
		c.TableSizes[i] = max64(t/factor, 3)
	}
	return &c
}

// WithDist returns a copy of s using dist for categorical draws.
func (s *Spec) WithDist(dist Distribution) *Spec {
	c := *s
	c.Dist = dist
	return &c
}

// WithEmbDim returns a copy of s with the given embedding dimension.
// Models choose their own embedding width (Table 2), so specs are adjusted
// to the model being trained.
func (s *Spec) WithEmbDim(dim int) *Spec {
	c := *s
	c.EmbDim = dim
	return &c
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Distribution draws a row index within an embedding table, controlling the
// access skew.
type Distribution interface {
	// Sample returns a row in [0, tableSize).
	Sample(rng *tensor.RNG, tableSize int64) int64
	// Name identifies the distribution in experiment output.
	Name() string
}
