// Package population implements the synthetic world model that stands in for
// Facebook's 1.5B-user base (DESIGN.md §2).
//
// Every user has a latent activity level t drawn from a log-normal with
// median 1 and spread ActivitySigma. A user with activity t holds interest i
// with probability
//
//	q(t, λᵢ) = 1 − exp(−t·λᵢ)
//
// where the per-interest rate λᵢ is calibrated so the marginal audience
// share E_t[q(t, λᵢ)] equals the catalog share of interest i (which itself
// reproduces the paper's Fig 2 audience-size distribution).
//
// The audience of a conjunction of interests S is the model expectation
//
//	AS(S) = Pop · E_t[ ∏_{i∈S} q(t, λᵢ) ]
//
// evaluated by quadrature over a discretized activity grid — there is no
// need to materialize 1.5 billion users. The quadrature's transcendental
// inner loop runs on the precomputed inclusion-row kernel (rows.go): each
// interest's per-grid-point survival factors exp(−t_k·λᵢ) are materialized
// lazily on first touch, interned and immutable, so hot evaluation paths are
// contiguous multiply loops — bit-identical to the inline exp() code they
// hoist. Activity heterogeneity makes each
// added interest filter less sharply (survivors of a long conjunction are
// increasingly hyper-active), which produces the concave log-audience decay
// the paper observes and fits with log(VAS) ~ −A·log(N+1) + B.
//
// Concrete users (for the FDVT panel and for ad-delivery simulation) are
// sampled from the same process, so panel statistics and analytic audiences
// are mutually consistent.
package population

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"nanotarget/internal/dist"
	"nanotarget/internal/geo"
	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/rng"
)

// Config parametrizes the world model.
type Config struct {
	// Catalog is the interest ecosystem. Required.
	Catalog *interest.Catalog
	// Population is the number of users in the modeled base
	// (1.5e9 for the paper's 2017 top-50-country base).
	Population int64
	// ActivitySigma is the log-space standard deviation of the user activity
	// distribution (median activity is 1 by construction). Larger values
	// mean heavier activity tails: more hyper-active users, slower audience
	// decay as interests are added. Calibrated so the uniqueness model lands
	// near the paper's Table 1.
	ActivitySigma float64
	// ActivityGridSize is the number of quadrature points for expectations
	// over the activity distribution.
	ActivityGridSize int
	// Demographics describes the population's marginal distributions.
	// Zero value means DefaultDemographics().
	Demographics Demographics
	// DisableRowKernel turns off the precomputed inclusion-row kernel
	// (rows.go) and restores the legacy per-call exp() inner loops. Results
	// are bit-identical either way (the kernel hoists, it does not
	// reformulate — gated in determinism_test.go); only wall time and the
	// row-table memory (grid × 8 bytes per touched interest) change. The
	// kernel is ON by default.
	DisableRowKernel bool
}

// DefaultConfig returns the paper-calibrated world configuration for the
// provided catalog.
func DefaultConfig(cat *interest.Catalog) Config {
	return Config{
		Catalog:          cat,
		Population:       1_500_000_000,
		ActivitySigma:    1.12,
		ActivityGridSize: 512,
		Demographics:     DefaultDemographics(),
	}
}

// Model is the calibrated world. It is immutable after construction and safe
// for concurrent readers.
type Model struct {
	cfg     Config
	pop     int64
	catalog *interest.Catalog

	// Activity quadrature grid.
	actT []float64 // activity values
	actP []float64 // probability masses (sum ≈ 1)

	// Per-interest calibrated rates.
	lambda []float64
	// Geometric mean of lambda, the reference for popularity tilts.
	lambdaGeo float64

	// tiltMu guards first-touch inserts into tiltTables and
	// tiltedRateCache, so an unwarmed tilt may be hit concurrently (the
	// read path takes an RLock; entries are immutable once published —
	// the map analogue of rows.go's one-slot-per-interest interning).
	tiltMu sync.RWMutex
	// Count tables n(t), the untilted one included, built lazily on first
	// touch per tilt.
	tiltTables map[float64]*countTable
	// Cached tilted rate vectors, keyed by tilt (lazy; see WarmTilts).
	tiltedRateCache map[float64][]float64

	// rows is the inclusion-row kernel: lazily interned per-interest
	// survival-factor rows (nil when Config.DisableRowKernel; see rows.go).
	rows *rowKernel
	// queryPool and vecPool recycle grid-length evaluation scratch —
	// the allocation-free warm query path (see rows.go).
	queryPool sync.Pool
	vecPool   sync.Pool

	demo demoModel
}

// NewModel calibrates the world model. Its cost at serving catalog sizes is
// the span of the 1,600-point share table that calibrateRates inverts (512
// exp per point at the default activity grid): about 550 points at 20,000
// interests. Those points, and then the per-interest work (one search and
// interpolation in the span and one exp per interest), run in contiguous
// blocks on GOMAXPROCS goroutines. Every point and every rate is the same
// expression on its own inputs, and the log-rates are summed in ID order on
// the caller's goroutine, so the model is bit-identical at any GOMAXPROCS.
// No count table is built here: each tilt's, the untilted one included, is
// built on first touch, which no reach estimate makes.
func NewModel(cfg Config) (*Model, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("population: Config.Catalog is required")
	}
	if cfg.Population <= 0 {
		return nil, errors.New("population: Population must be positive")
	}
	if cfg.ActivitySigma <= 0 {
		return nil, errors.New("population: ActivitySigma must be positive")
	}
	if cfg.ActivityGridSize < 16 {
		return nil, errors.New("population: ActivityGridSize must be at least 16")
	}
	if cfg.Demographics.isZero() {
		cfg.Demographics = DefaultDemographics()
	}
	m := &Model{
		cfg:             cfg,
		pop:             cfg.Population,
		catalog:         cfg.Catalog,
		tiltTables:      make(map[float64]*countTable),
		tiltedRateCache: make(map[float64][]float64),
	}
	m.buildActivityGrid()
	if err := m.calibrateRates(); err != nil {
		return nil, err
	}
	if !cfg.DisableRowKernel {
		m.initRows()
	}
	var err error
	m.demo, err = newDemoModel(cfg.Demographics)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// buildActivityGrid discretizes LogNormal(0, σ) into log-spaced points over
// ±5σ with exact CDF-difference masses, so thin upper tails (which dominate
// long conjunctions) are represented.
func (m *Model) buildActivityGrid() {
	sigma := m.cfg.ActivitySigma
	k := m.cfg.ActivityGridSize
	lo, hi := -5*sigma, 5*sigma // in log space
	m.actT = make([]float64, k)
	m.actP = make([]float64, k)
	step := (hi - lo) / float64(k)
	var cumPrev float64 // Φ(lo/σ)
	cumPrev = dist.NormCDF(lo / sigma)
	for i := 0; i < k; i++ {
		edgeHi := lo + float64(i+1)*step
		cum := dist.NormCDF(edgeHi / sigma)
		mid := lo + (float64(i)+0.5)*step
		m.actT[i] = math.Exp(mid)
		m.actP[i] = cum - cumPrev
		cumPrev = cum
	}
	// Renormalize the tiny mass outside ±5σ into the grid.
	total := 0.0
	for _, p := range m.actP {
		total += p
	}
	for i := range m.actP {
		m.actP[i] /= total
	}
}

// marginalShare returns E_t[1 − exp(−t·λ)] on the activity grid.
func (m *Model) marginalShare(lambda float64) float64 {
	s := 0.0
	for i, t := range m.actT {
		s += m.actP[i] * (1 - math.Exp(-t*lambda))
	}
	return s
}

// calibrateRates inverts marginalShare for every catalog interest using a
// precomputed monotone log-grid (share as a function of log λ), interpolated
// log-linearly. Max relative error is far below sampling noise. Only the
// span of the grid that the catalog's shares need is computed: from the
// point below the first point at or above the smallest share to the first
// point at or above the largest, found by two bisections of about 11
// points each. A point's inputs depend on its index alone, so each share's
// search in the span picks the same neighbouring points, and the same bits,
// as a search of the whole grid. The span's points and the per-interest
// inversions each run in contiguous blocks on GOMAXPROCS goroutines (every
// one writes only its own slot); the log-rates behind lambdaGeo are summed
// afterwards in ID order, so the sum keeps its bits at any GOMAXPROCS.
func (m *Model) calibrateRates() error {
	const (
		logLo  = -28.0 // λ = e^-28 ≈ 7e-13
		logHi  = 14.0  // λ = e^14 ≈ 1.2e6
		points = 1600
	)
	n := m.catalog.Len()
	minShare, maxShare := 1.0, 0.0
	for i := 0; i < n; i++ {
		target := m.catalog.Share(interest.ID(i))
		if !(target > 0 && target < 1) {
			return fmt.Errorf("population: interest %d share %v out of (0,1)", i, target)
		}
		minShare, maxShare = min(minShare, target), max(maxShare, target)
	}
	logLambdaAt := func(j int) float64 {
		return logLo + (logHi-logLo)*float64(j)/float64(points-1)
	}
	first := func(target float64) int {
		return sort.Search(points, func(j int) bool {
			return m.marginalShare(math.Exp(logLambdaAt(j))) >= target
		})
	}
	lo := max(first(minShare)-1, 0)
	hi := max(min(first(maxShare), points-1), lo) // lo when the catalog is empty
	logLambda := make([]float64, hi-lo+1)
	shares := make([]float64, hi-lo+1)
	parallel.Blocks(len(shares), func(from, to int) {
		for k := from; k < to; k++ {
			logLambda[k] = logLambdaAt(lo + k)
			shares[k] = m.marginalShare(math.Exp(logLambda[k]))
		}
	})
	m.lambda = make([]float64, n)
	logs := make([]float64, n)
	parallel.Blocks(n, func(from, to int) {
		for i := from; i < to; i++ {
			target := m.catalog.Share(interest.ID(i))
			k := sort.SearchFloat64s(shares, target)
			var lg float64
			switch j := lo + k; {
			case j == 0:
				lg = logLambda[0]
			case j >= points:
				lg = logLambda[len(logLambda)-1]
			default:
				s0, s1 := shares[k-1], shares[k]
				frac := 0.0
				if s1 > s0 {
					frac = (target - s0) / (s1 - s0)
				}
				lg = logLambda[k-1] + frac*(logLambda[k]-logLambda[k-1])
			}
			m.lambda[i] = math.Exp(lg)
			logs[i] = lg
		}
	})
	sumLog := 0.0
	for _, lg := range logs {
		sumLog += lg
	}
	m.lambdaGeo = math.Exp(sumLog / float64(n))
	return nil
}

// countTable is a monotone map between activity t and the expected number of
// held interests n(t) = Σᵢ (1 − exp(−t·λ'ᵢ)) for a given popularity tilt.
type countTable struct {
	logT []float64
	n    []float64 // strictly increasing
}

// tiltedLambda applies a popularity tilt: λ' = λ·(λ/λgeo)^β. β > 0 shifts a
// user's holdings toward popular interests (making them less unique);
// β < 0 toward rare ones.
func (m *Model) tiltedLambda(i int, beta float64) float64 {
	if beta == 0 {
		return m.lambda[i]
	}
	return m.lambda[i] * math.Pow(m.lambda[i]/m.lambdaGeo, beta)
}

// buildCountTable tabulates n(t) for a tilt using a bucketed λ histogram so
// the cost is independent of catalog size beyond the initial bucketing.
func (m *Model) buildCountTable(beta float64) *countTable {
	const buckets = 1024
	logs := make([]float64, len(m.lambda))
	minLog, maxLog := math.Inf(1), math.Inf(-1)
	for i := range m.lambda {
		lg := math.Log(m.tiltedLambda(i, beta))
		logs[i] = lg
		if lg < minLog {
			minLog = lg
		}
		if lg > maxLog {
			maxLog = lg
		}
	}
	if maxLog <= minLog {
		maxLog = minLog + 1
	}
	counts := make([]float64, buckets)
	centers := make([]float64, buckets)
	width := (maxLog - minLog) / buckets
	for b := 0; b < buckets; b++ {
		centers[b] = math.Exp(minLog + (float64(b)+0.5)*width)
	}
	for _, lg := range logs {
		b := int((lg - minLog) / width)
		if b >= buckets {
			b = buckets - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	// t grid: wide enough that n(t) spans below 1 and beyond the max panel
	// profile size (8,950 interests in Fig 1), clamped by catalog size.
	const tPoints = 600
	tbl := &countTable{
		logT: make([]float64, tPoints),
		n:    make([]float64, tPoints),
	}
	tLo, tHi := math.Log(1e-9), math.Log(1e9)
	parallel.Blocks(tPoints, func(from, to int) {
		for j := from; j < to; j++ {
			lt := tLo + (tHi-tLo)*float64(j)/float64(tPoints-1)
			t := math.Exp(lt)
			n := 0.0
			for b := 0; b < buckets; b++ {
				if counts[b] == 0 {
					continue
				}
				n += counts[b] * (1 - math.Exp(-t*centers[b]))
			}
			tbl.logT[j] = lt
			tbl.n[j] = n
		}
	})
	// Enforce strict monotonicity for safe inversion.
	for j := 1; j < tPoints; j++ {
		if tbl.n[j] <= tbl.n[j-1] {
			tbl.n[j] = tbl.n[j-1] * (1 + 1e-12)
		}
	}
	return tbl
}

// activityForCount inverts n(t) = want on the table.
func (tbl *countTable) activityForCount(want float64) float64 {
	if want <= tbl.n[0] {
		return math.Exp(tbl.logT[0])
	}
	last := len(tbl.n) - 1
	if want >= tbl.n[last] {
		return math.Exp(tbl.logT[last])
	}
	j := sort.SearchFloat64s(tbl.n, want)
	n0, n1 := tbl.n[j-1], tbl.n[j]
	frac := (want - n0) / (n1 - n0)
	return math.Exp(tbl.logT[j-1] + frac*(tbl.logT[j]-tbl.logT[j-1]))
}

// table returns the count table for a tilt, building and caching it on
// first use. Safe for concurrent first touch: readers take an RLock, the
// first toucher of a tilt builds under the write lock and publishes an
// immutable table (racing first touches serialize; both would build
// identical bits, only one is interned).
func (m *Model) table(beta float64) *countTable {
	m.tiltMu.RLock()
	t, ok := m.tiltTables[beta]
	m.tiltMu.RUnlock()
	if ok {
		return t
	}
	m.tiltMu.Lock()
	defer m.tiltMu.Unlock()
	if t, ok := m.tiltTables[beta]; ok {
		return t // a racing first touch published while we waited
	}
	t = m.buildCountTable(beta)
	m.tiltTables[beta] = t
	return t
}

// WarmTilts precomputes count tables for the given tilts, 0 (untilted)
// included. Since the tilt caches became first-touch safe this is purely a
// latency optimization (skip the one-time build under load), no longer a
// correctness requirement.
func (m *Model) WarmTilts(betas ...float64) {
	for _, b := range betas {
		_ = m.table(b)
	}
}

// ActivityForCount returns the activity level t at which a user with
// popularity tilt beta holds `count` interests in expectation. It is the
// inverse of the model's n(t) curve and is used to plant panel users whose
// profile sizes follow the paper's Fig 1 distribution.
func (m *Model) ActivityForCount(count float64, beta float64) float64 {
	return m.table(beta).activityForCount(count)
}

// ExpectedCount returns n(t), the expected profile size at activity t for
// tilt beta.
func (m *Model) ExpectedCount(t float64, beta float64) float64 {
	tbl := m.table(beta)
	lt := math.Log(t)
	if lt <= tbl.logT[0] {
		return tbl.n[0]
	}
	last := len(tbl.logT) - 1
	if lt >= tbl.logT[last] {
		return tbl.n[last]
	}
	j := sort.SearchFloat64s(tbl.logT, lt)
	if j == 0 {
		return tbl.n[0]
	}
	frac := (lt - tbl.logT[j-1]) / (tbl.logT[j] - tbl.logT[j-1])
	return tbl.n[j-1] + frac*(tbl.n[j]-tbl.n[j-1])
}

// Catalog returns the interest catalog the model was built on.
func (m *Model) Catalog() *interest.Catalog { return m.catalog }

// Population returns the size of the modeled user base.
func (m *Model) Population() int64 { return m.pop }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Lambda returns the calibrated rate of an interest (exposed for tests and
// diagnostics).
func (m *Model) Lambda(id interest.ID) float64 { return m.lambda[id] }

// ActivityGrid returns copies of the activity quadrature grid: the points
// t_k and their probability masses (exposed for tests and diagnostics).
func (m *Model) ActivityGrid() (t, p []float64) {
	return slices.Clone(m.actT), slices.Clone(m.actP)
}

// CountTable returns copies of the n(t) table for tilt beta, building it on
// first use: the log-activity grid and the expected profile size at each
// point (exposed for tests and diagnostics).
func (m *Model) CountTable(beta float64) (logT, n []float64) {
	tbl := m.table(beta)
	return slices.Clone(tbl.logT), slices.Clone(tbl.n)
}

// MarginalShare returns the model-implied audience share of a single
// interest (approximately the catalog share, up to calibration error).
func (m *Model) MarginalShare(id interest.ID) float64 {
	return m.marginalShare(m.lambda[id])
}

// SampleActivity draws a population activity level.
func (m *Model) SampleActivity(r *rng.Rand) float64 {
	return math.Exp(m.cfg.ActivitySigma * r.NormFloat64())
}

// geoPopulationShare returns the fraction of the modeled base in the given
// country set (empty or Worldwide means 1).
func (m *Model) geoPopulationShare(countries []string) float64 {
	if len(countries) == 0 {
		return 1
	}
	total := float64(geo.TotalTop50Users())
	sum := 0.0
	for _, code := range countries {
		if code == geo.Worldwide {
			return 1
		}
		if c, ok := geo.ByCode(code); ok && c.FBUsers > 0 {
			sum += float64(c.FBUsers)
		}
	}
	share := sum / total
	if share > 1 {
		share = 1
	}
	return share
}
