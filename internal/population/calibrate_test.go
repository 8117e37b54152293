package population

import (
	"math"
	"sort"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
)

// fullShareTable is the reference for calibrateRates: the whole 1,600-point
// share table, as calibration computed it before it bracketed the catalog's
// span.
func fullShareTable(m *Model) (logLambda, shares []float64) {
	const (
		logLo  = -28.0
		logHi  = 14.0
		points = 1600
	)
	logLambda = make([]float64, points)
	shares = make([]float64, points)
	for j := range points {
		logLambda[j] = logLo + (logHi-logLo)*float64(j)/float64(points-1)
		shares[j] = m.marginalShare(math.Exp(logLambda[j]))
	}
	return logLambda, shares
}

// fullCalibration inverts the full share table for every catalog interest,
// as calibrateRates did before it bracketed the catalog's span. ends counts
// the interests that fell at or below the table's first point and beyond
// its last.
func fullCalibration(cat *interest.Catalog, logLambda, shares []float64) (lambda []float64, lambdaGeo float64, ends [2]int) {
	points := len(shares)
	n := cat.Len()
	lambda = make([]float64, n)
	sumLog := 0.0
	for i := 0; i < n; i++ {
		target := cat.Share(interest.ID(i))
		j := sort.SearchFloat64s(shares, target)
		var lg float64
		switch {
		case j == 0:
			lg = logLambda[0]
			ends[0]++
		case j >= points:
			lg = logLambda[points-1]
			ends[1]++
		default:
			s0, s1 := shares[j-1], shares[j]
			frac := 0.0
			if s1 > s0 {
				frac = (target - s0) / (s1 - s0)
			}
			lg = logLambda[j-1] + frac*(logLambda[j]-logLambda[j-1])
		}
		lambda[i] = math.Exp(lg)
		sumLog += lg
	}
	return lambda, math.Exp(sumLog / float64(n)), ends
}

// TestCalibrationMatchesFullShareTable gates the bracketed share table:
// every λ and lambdaGeo must be bit-identical to inverting the full table,
// over seeds, catalog sizes and populations (which set the catalog's share
// range), activity spreads and grid sizes. Two edge configurations follow
// the matrix: at ActivitySigma 6 the table's first point lies above the
// rarest shares of a 1.5e9 base and its last point below the top shares of
// a 1,000-user base whose MaxShare is 1, so both end branches run.
func TestCalibrationMatchesFullShareTable(t *testing.T) {
	type catKey struct {
		seed     uint64
		size     int
		pop      int64
		maxShare float64
	}
	type config struct {
		catKey
		sigma float64
		grid  int
	}
	var configs []config
	for _, seed := range []uint64{1, 7, 42} {
		for _, size := range []int{1, 400, 4000, 20000} {
			for _, pop := range []int64{1e3, 2e6, 1e8, 1.5e9, 2.8e9} {
				for _, sigma := range []float64{0.5, 1.12, 2.0} {
					for _, grid := range []int{16, 64, 512} {
						configs = append(configs, config{catKey{seed, size, pop, 0.2}, sigma, grid})
					}
				}
			}
		}
	}
	configs = append(configs,
		config{catKey{1, 4000, 1.5e9, 0.2}, 6, 64},
		config{catKey{1, 4000, 1e3, 1}, 6, 64},
	)

	catalogs := map[catKey]*interest.Catalog{}
	type gridKey struct {
		sigma float64
		grid  int
	}
	tables := map[gridKey][2][]float64{}
	var ends [2]int
	for _, c := range configs {
		cat, ok := catalogs[c.catKey]
		if !ok {
			icfg := interest.DefaultConfig()
			icfg.Size, icfg.Population, icfg.MaxShare = c.size, c.pop, c.maxShare
			var err error
			if cat, err = interest.Generate(icfg, rng.New(c.seed)); err != nil {
				t.Fatal(err)
			}
			catalogs[c.catKey] = cat
		}
		cfg := DefaultConfig(cat)
		cfg.Population = c.pop
		cfg.ActivitySigma = c.sigma
		cfg.ActivityGridSize = c.grid
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		tbl, ok := tables[gridKey{c.sigma, c.grid}]
		if !ok {
			logLambda, shares := fullShareTable(m)
			tbl = [2][]float64{logLambda, shares}
			tables[gridKey{c.sigma, c.grid}] = tbl
		}
		lambda, lambdaGeo, e := fullCalibration(cat, tbl[0], tbl[1])
		ends[0] += e[0]
		ends[1] += e[1]
		for i, want := range lambda {
			if got := m.lambda[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: λ[%d] = %v, full table gives %v", c, i, got, want)
			}
		}
		if math.Float64bits(m.lambdaGeo) != math.Float64bits(lambdaGeo) {
			t.Fatalf("%+v: lambdaGeo = %v, full table gives %v", c, m.lambdaGeo, lambdaGeo)
		}
	}
	if ends[0] == 0 || ends[1] == 0 {
		t.Fatalf("interests at or below the table's first point: %d, beyond its last: %d; want both > 0", ends[0], ends[1])
	}
	t.Logf("%d configs; %d interests at or below the first point, %d beyond the last", len(configs), ends[0], ends[1])
}
