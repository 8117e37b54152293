package core

import (
	"math"
	"testing"

	"nanotarget/internal/rng"
	"nanotarget/internal/stats"
)

// syntheticSamples builds a Samples table with controllable NaN structure:
// prefix-shaped rows (the real collection shape) when ragged is false, and
// arbitrary interior NaN holes when ragged is true — the shape the kernel's
// per-column total fallback must handle.
func syntheticSamples(t testing.TB, users, maxN int, seed uint64, ragged bool) *Samples {
	t.Helper()
	r := rng.New(seed)
	s := &Samples{
		AS:         make([][]float64, users),
		MaxN:       maxN,
		FloorValue: 20,
		Strategy:   "synthetic",
	}
	for u := range s.AS {
		row := make([]float64, maxN)
		depth := 1 + r.Intn(maxN)
		for n := range row {
			switch {
			case n < depth:
				row[n] = 20 + math.Floor(r.Float64()*1e6)/4
			case ragged && r.Float64() < 0.3:
				row[n] = 20 + math.Floor(r.Float64()*1e6)/4 // interior hole breaker
			default:
				row[n] = math.NaN()
			}
		}
		s.AS[u] = row
	}
	return s
}

// vasIdx computes VAS over a subset of user rows (nil = all rows); idx may
// contain repeats (bootstrap resamples). It is the naive gather-copy-sort
// path the columnar kernel (columns.go) replaced, kept as the reference the
// kernel is tested, fuzzed and benchmarked against.
func (s *Samples) vasIdx(q float64, idx []int) []float64 {
	out := make([]float64, s.MaxN)
	col := make([]float64, 0, len(s.AS))
	for n := 0; n < s.MaxN; n++ {
		col = col[:0]
		if idx == nil {
			for _, row := range s.AS {
				if n < len(row) && !math.IsNaN(row[n]) {
					col = append(col, row[n])
				}
			}
		} else {
			for _, ui := range idx {
				row := s.AS[ui]
				if n < len(row) && !math.IsNaN(row[n]) {
					col = append(col, row[n])
				}
			}
		}
		v, err := stats.Quantile(col, q)
		if err != nil {
			v = math.NaN() // an empty column
		}
		out[n] = v
	}
	return out
}

// naiveEstimateNP is EstimateNP on the naive path: the point fit and every
// bootstrap resample take vasIdx's gather-copy-sort quantiles, over the same
// stats.BootstrapCIParallel streams the kernel path draws.
func naiveEstimateNP(s *Samples, p float64, cfg EstimateConfig) (Estimate, error) {
	point, err := FitVAS(s.vasIdx(p, nil), s.FloorValue)
	if err != nil {
		return Estimate{}, err
	}
	ci, _, err := stats.BootstrapCIParallel(s.NumUsers(), cfg.BootstrapIters, cfg.Parallelism, cfg.CILevel, cfg.Rand,
		func(idx []int) (float64, error) {
			fit, err := FitVAS(s.vasIdx(p, idx), s.FloorValue)
			if err != nil {
				return 0, err
			}
			return fit.NP, nil
		})
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{P: p, NP: point.NP, CI: ci, R2: point.R2, Fit: point,
		Strategy: s.Strategy, BootstrapIters: cfg.BootstrapIters}, nil
}

// scanSampleCount is SampleCountAt by the O(U) row scan the column index
// replaced.
func scanSampleCount(s *Samples, n int) int {
	count := 0
	for _, row := range s.AS {
		if n-1 >= 0 && n-1 < len(row) && !math.IsNaN(row[n-1]) {
			count++
		}
	}
	return count
}

func resampleIdx(r *rng.Rand, users int) []int {
	idx := make([]int, users)
	for i := range idx {
		idx[i] = r.Intn(users)
	}
	return idx
}

// TestColumnarResampleMatchesNaive is the in-package differential gate: for
// prefix-shaped and ragged NaN patterns, the kernel's counting-quantile
// resample must be byte-identical to the naive gather-copy-sort path for
// every column and a spread of quantiles.
func TestColumnarResampleMatchesNaive(t *testing.T) {
	for _, ragged := range []bool{false, true} {
		for seed := uint64(0); seed < 5; seed++ {
			s := syntheticSamples(t, 60, 25, 100+seed, ragged)
			r := rng.New(seed)
			for trial := 0; trial < 20; trial++ {
				idx := resampleIdx(r, s.NumUsers())
				for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 1} {
					naive := s.vasIdx(q, idx)
					sc := s.borrowResample()
					kernel := s.vasResample(q, idx, sc)
					for n := range naive {
						if !bitsEqual(naive[n], kernel[n]) {
							t.Fatalf("ragged=%v seed=%d trial=%d q=%v n=%d: naive %v != kernel %v",
								ragged, seed, trial, q, n+1, naive[n], kernel[n])
						}
					}
					s.releaseResample(sc)
				}
			}
			// Full-panel VAS must agree too.
			for _, q := range []float64{0.25, 0.5, 0.9} {
				naive := s.vasIdx(q, nil)
				kernel := s.VAS(q)
				for n := range naive {
					if !bitsEqual(naive[n], kernel[n]) {
						t.Fatalf("ragged=%v seed=%d VAS q=%v n=%d: naive %v != kernel %v",
							ragged, seed, q, n+1, naive[n], kernel[n])
					}
				}
			}
		}
	}
}

// TestResamplePermutationMetamorphic: a bootstrap resample is a MULTISET —
// permuting its index order must leave the kernel's VAS vector (and the
// naive path's) byte-identical.
func TestResamplePermutationMetamorphic(t *testing.T) {
	s := syntheticSamples(t, 80, 25, 7, false)
	r := rng.New(8)
	idx := resampleIdx(r, s.NumUsers())
	perm := append([]int{}, idx...)
	for trial := 0; trial < 10; trial++ {
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, q := range []float64{0.5, 0.9} {
			sc := s.borrowResample()
			base := append([]float64{}, s.vasResample(q, idx, sc)...)
			shuffled := s.vasResample(q, perm, sc)
			for n := range base {
				if !bitsEqual(base[n], shuffled[n]) {
					t.Fatalf("trial %d q=%v n=%d: resample order changed the kernel VAS: %v != %v",
						trial, q, n+1, base[n], shuffled[n])
				}
			}
			s.releaseResample(sc)
			naive := s.vasIdx(q, perm)
			for n := range base {
				if !bitsEqual(base[n], naive[n]) {
					t.Fatalf("trial %d q=%v n=%d: permuted naive diverged from kernel: %v != %v",
						trial, q, n+1, naive[n], base[n])
				}
			}
		}
	}
}

// TestEstimateNPKnobIsByteIdentical runs one collected table through
// EstimateNP and through the naive reference naiveEstimateNP: point
// estimate, CI bounds and R² must not move by a bit, at workers 1 and 4.
func TestEstimateNPKnobIsByteIdentical(t *testing.T) {
	users := panelUsers(40, 30)
	src := powerLawSource(1.7, 1e7, 20)
	for _, workers := range []int{1, 4} {
		samples, err := Collect(users, Random{}, src, CollectConfig{Seed: rng.New(11)})
		if err != nil {
			t.Fatal(err)
		}
		ek, err := EstimateNP(samples, 0.9, EstimateConfig{BootstrapIters: 300, CILevel: 0.95, Rand: rng.New(12), Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		en, err := naiveEstimateNP(samples, 0.9, EstimateConfig{BootstrapIters: 300, CILevel: 0.95, Rand: rng.New(12), Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(ek.NP, en.NP) || !bitsEqual(ek.CI.Lo, en.CI.Lo) ||
			!bitsEqual(ek.CI.Hi, en.CI.Hi) || !bitsEqual(ek.R2, en.R2) {
			t.Fatalf("workers=%d: kernel %+v != naive %+v", workers, ek, en)
		}
	}
}

// TestSampleCountAtMatchesScan: the column-index-derived counts must equal
// the O(U) row scan (scanSampleCount) for every N, in and out of range, on
// both NaN shapes.
func TestSampleCountAtMatchesScan(t *testing.T) {
	for _, ragged := range []bool{false, true} {
		s := syntheticSamples(t, 70, 25, 3, ragged)
		for n := -1; n <= s.MaxN+2; n++ {
			if got, want := s.SampleCountAt(n), scanSampleCount(s, n); got != want {
				t.Fatalf("ragged=%v SampleCountAt(%d) = %d, legacy scan says %d", ragged, n, got, want)
			}
		}
	}
}

// TestWarmResampleZeroAllocs gates the kernel's steady state at 0 allocs per
// resample iteration, mirroring the audience engine's
// TestWarmEngineHitZeroAllocs: pooled counting scratch, the immutable
// presorted index, pooled fit buffers.
func TestWarmResampleZeroAllocs(t *testing.T) {
	if coreRaceEnabled {
		t.Skip("race instrumentation allocates; the 0 allocs/op gate runs in the non-race CI lane (coverage job) and locally")
	}
	s := syntheticSamples(t, 200, 25, 5, false)
	idx := resampleIdx(rng.New(6), s.NumUsers())
	iteration := func() {
		sc := s.borrowResample()
		fit, err := fitVASInto(sc.xs, sc.ys, s.vasResample(0.9, idx, sc), s.FloorValue)
		s.releaseResample(sc)
		if err != nil || fit.NP <= 0 {
			t.Fatalf("degenerate warm iteration: %+v %v", fit, err)
		}
	}
	iteration() // warm: build the index, populate the pools
	if avg := testing.AllocsPerRun(200, iteration); avg != 0 {
		t.Errorf("warm resample iteration: %v allocs/op, want 0", avg)
	}
}

func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// BenchmarkBootstrapResample measures ONE bootstrap resample iteration —
// the §4.2 inner loop EstimateNP repeats 10,000 times — under the columnar
// kernel versus the naive gather-copy-sort path. Run with -benchmem: the
// kernel's steady state is 0 allocs/op (also gated by
// TestWarmResampleZeroAllocs), the naive path allocates per column.
func BenchmarkBootstrapResample(b *testing.B) {
	users := panelUsers(2390, 30) // the paper's panel size
	src := powerLawSource(1.7, 1e7, 20)
	s, err := Collect(users, Random{}, src, CollectConfig{Seed: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	idx := resampleIdx(rng.New(2), s.NumUsers())
	b.Run("kernel", func(b *testing.B) {
		sc := s.borrowResample()
		s.vasResample(0.9, idx, sc) // build the index outside the timer
		s.releaseResample(sc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := s.borrowResample()
			if _, err := fitVASInto(sc.xs, sc.ys, s.vasResample(0.9, idx, sc), s.FloorValue); err != nil {
				b.Fatal(err)
			}
			s.releaseResample(sc)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FitVAS(s.vasIdx(0.9, idx), s.FloorValue); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColumnIndexBuild measures the one-time presort the kernel pays
// per Samples (amortized over every subsequent resample).
func BenchmarkColumnIndexBuild(b *testing.B) {
	users := panelUsers(2390, 30)
	src := powerLawSource(1.7, 1e7, 20)
	s, err := Collect(users, Random{}, src, CollectConfig{Seed: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buildColumns(s.AS, s.MaxN)
	}
}
