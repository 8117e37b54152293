package core

// The columnar bootstrap kernel.
//
// EstimateNP's bootstrap loop ("we repeat the data aggregation and model fit
// in 10,000 bootstrap samples", §4.2) is the estimator's hot path: every
// iteration the naive route re-scans the sample table per combination size N
// (append the resampled column, skip NaN holes), copies it, and sorts it for
// one quantile — O(MaxN·U·log U) with ~50 allocations per iteration. But a
// bootstrap resample is a multiset over a FIXED panel: the distinct values
// of column N never change between iterations, only their multiplicities do.
//
// The kernel presorts each column once into an immutable index —
// (value ascending, panel-row) pairs plus each row's non-NaN depth — and a
// resample becomes counting work: tally the resampled row multiplicities
// into a pooled scratch vector, derive every column's expansion size from
// one depth histogram (panel columns are prefix-shaped: a row contributes to
// columns 1..depth), and walk each presorted column accumulating
// multiplicities to the target order statistics
// (stats.CountingQuantileSorted). O(MaxN·U) per iteration, zero allocations
// once warm.
//
// # Bit-identity
//
// This is a hoist in the same sense as the population inclusion-row kernel
// (internal/population/rows.go): the multiset quantile of a
// with-replacement resample equals the quantile of its sorted expansion, so
// the counting walk selects exactly the values sort.Float64s would have
// placed at the lo/hi order statistics, and the interpolation arithmetic
// applied to them is QuantileSorted's own expression. VAS vectors, FitVAS
// outputs, N_P point estimates and bootstrap percentile CIs are
// byte-identical to the naive sort-per-resample path, which survives only
// as test references: vasIdx (columns_test.go), which FuzzColumnarVAS and
// the in-package tests compare against, and naiveEstimateNP (the module
// root's reference_test.go), which TestColumnKernelIsByteIdentical
// (determinism_test.go) compares against at seeds {0,1,42} and workers 1
// vs 4. The golden pins must not move either.
//
// # Memory envelope
//
// The index holds 12 bytes per non-NaN cell (8-byte value + 4-byte row
// index) plus 4 bytes per row for depths: ~700 KiB for the paper's
// 2,390-user × 25-column panel. It is built lazily on the first quantile
// query and shared by every subsequent VAS/EstimateNP call on the Samples.

import (
	"math"
	"sort"

	"nanotarget/internal/stats"
)

// columnIndex is the presorted, immutable per-N view of a Samples table.
type columnIndex struct {
	// vals[n] holds column n's non-NaN values sorted ascending; users[n]
	// holds the panel-row index contributing each sorted position.
	vals  [][]float64
	users [][]int32
	// depths[u] is row u's count of leading non-NaN cells (clamped to
	// MaxN). When prefixShaped, every row is non-NaN exactly up to its
	// depth, so a resample's per-column totals all derive from one depth
	// histogram; otherwise totals are summed per column.
	depths       []int32
	prefixShaped bool
}

// columns returns the Samples' column index, building it on first use. Safe
// for concurrent first touch (bootstrap workers race here); the build runs
// once and the result is immutable.
func (s *Samples) columns() *columnIndex {
	s.colOnce.Do(func() { s.cols = buildColumns(s.AS, s.MaxN) })
	return s.cols
}

// buildColumns constructs the presorted index: one gather + sort per column,
// paid once per Samples.
func buildColumns(as [][]float64, maxN int) *columnIndex {
	ci := &columnIndex{
		vals:         make([][]float64, maxN),
		users:        make([][]int32, maxN),
		depths:       make([]int32, len(as)),
		prefixShaped: true,
	}
	for u, row := range as {
		lim := len(row)
		if lim > maxN {
			lim = maxN
		}
		d := 0
		for d < lim && !math.IsNaN(row[d]) {
			d++
		}
		ci.depths[u] = int32(d)
		for n := d; n < lim && ci.prefixShaped; n++ {
			if !math.IsNaN(row[n]) {
				ci.prefixShaped = false
			}
		}
	}
	for n := 0; n < maxN; n++ {
		var vals []float64
		var users []int32
		for u, row := range as {
			if n < len(row) && !math.IsNaN(row[n]) {
				vals = append(vals, row[n])
				users = append(users, int32(u))
			}
		}
		sort.Sort(&columnSorter{vals: vals, users: users})
		ci.vals[n] = vals
		ci.users[n] = users
	}
	return ci
}

// columnSorter orders a column's (value, row) pairs by value ascending with
// a row-index tiebreak, so index builds are deterministic. Tie order cannot
// affect quantiles (tied values are bit-equal in this table), only the
// index's internal layout.
type columnSorter struct {
	vals  []float64
	users []int32
}

func (c *columnSorter) Len() int { return len(c.vals) }
func (c *columnSorter) Less(i, j int) bool {
	if c.vals[i] != c.vals[j] {
		return c.vals[i] < c.vals[j]
	}
	return c.users[i] < c.users[j]
}
func (c *columnSorter) Swap(i, j int) {
	c.vals[i], c.vals[j] = c.vals[j], c.vals[i]
	c.users[i], c.users[j] = c.users[j], c.users[i]
}

// resampleScratch is the pooled per-iteration state of the kernel bootstrap
// path: the reusable VAS output buffer, the FitVAS point scratch, and the
// depth-histogram/totals workspace. One Borrow/Release pair per resample;
// the warm path allocates nothing (gated by TestWarmResampleZeroAllocs).
type resampleScratch struct {
	out       []float64 // VAS output, len MaxN
	xs, ys    []float64 // FitVAS censored points, cap MaxN
	depthHist []int     // resampled-depth histogram, len MaxN+1
	totals    []int     // per-column expansion sizes, len MaxN
}

func (s *Samples) borrowResample() *resampleScratch {
	if v, ok := s.resamplePool.Get().(*resampleScratch); ok {
		return v
	}
	return &resampleScratch{
		out:       make([]float64, s.MaxN),
		xs:        make([]float64, 0, s.MaxN),
		ys:        make([]float64, 0, s.MaxN),
		depthHist: make([]int, s.MaxN+1),
		totals:    make([]int, s.MaxN),
	}
}

func (s *Samples) releaseResample(sc *resampleScratch) {
	s.resamplePool.Put(sc)
}

// vasResample is the q-quantile VAS vector of the resample idx (a multiset
// of panel-row indices) on the column index, written into sc.out.
// Byte-identical to the naive gather-copy-sort path (the test reference
// vasIdx in columns_test.go); O(MaxN·U), zero allocations.
func (s *Samples) vasResample(q float64, idx []int, sc *resampleScratch) []float64 {
	cols := s.columns()
	box := s.countsPool.Borrow(len(s.AS))
	counts := *box
	for _, ui := range idx {
		counts[ui]++
	}
	out := sc.out[:s.MaxN]
	if cols.prefixShaped {
		// One histogram of resampled depths yields every column total:
		// column n's expansion holds the rows resampled with depth > n.
		hist := sc.depthHist
		for i := range hist {
			hist[i] = 0
		}
		for u, c := range counts {
			if c != 0 {
				hist[cols.depths[u]] += int(c)
			}
		}
		t := 0
		for n := s.MaxN - 1; n >= 0; n-- {
			t += hist[n+1]
			sc.totals[n] = t
		}
	} else {
		for n := 0; n < s.MaxN; n++ {
			sc.totals[n] = stats.CountingTotal(cols.users[n], counts)
		}
	}
	for n := 0; n < s.MaxN; n++ {
		if sc.totals[n] == 0 {
			out[n] = math.NaN()
			continue
		}
		out[n] = stats.CountingQuantileSorted(cols.vals[n], cols.users[n], counts, sc.totals[n], q)
	}
	s.countsPool.Release(box)
	return out
}
