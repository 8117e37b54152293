package nanotarget

// Test-side references for the two evaluation kernels. The inclusion-row
// kernel (internal/population/rows.go) and the columnar bootstrap kernel
// (internal/core/columns.go) are the only runtime paths; the loops they
// replaced live on here, rebuilt from exported API only, as the references
// TestRowKernelIsByteIdentical and TestColumnKernelIsByteIdentical compare
// against bit for bit and the exp and naive benchmark arms time.

import (
	"math"

	"nanotarget/internal/core"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/stats"
)

// inlineExp evaluates a model's audience shares by the per-call exp() loops
// the row kernel hoisted: one exp per (interest, grid point), from the
// model's calibrated rates and activity grid.
type inlineExp struct {
	m    *population.Model
	t, p []float64 // activity grid points and masses
}

func newInlineExp(m *population.Model) *inlineExp {
	t, p := m.ActivityGrid()
	return &inlineExp{m: m, t: t, p: p}
}

// and multiplies interest id's inclusion probability 1 − exp(−t_k·λ) into
// the survivor product partial at every grid point.
func (e *inlineExp) and(partial []float64, id interest.ID) {
	lambda := e.m.Lambda(id)
	for k, t := range e.t {
		partial[k] *= 1 - math.Exp(-t*lambda)
	}
}

// share sums the probability-weighted survivors in grid order.
func (e *inlineExp) share(partial []float64) float64 {
	s := 0.0
	for k, p := range e.p {
		s += p * partial[k]
	}
	return s
}

// survivors returns a fresh all-ones survivor product (the empty
// conjunction).
func (e *inlineExp) survivors() []float64 {
	partial := make([]float64, len(e.t))
	for k := range partial {
		partial[k] = 1
	}
	return partial
}

// conjunctionShare is Model.ConjunctionShare by inline exp().
func (e *inlineExp) conjunctionShare(ids []interest.ID) float64 {
	partial := e.survivors()
	for _, id := range ids {
		e.and(partial, id)
	}
	return e.share(partial)
}

// unionShare is Model.UnionConjunctionShare by the per-grid-point exp()
// triple loop, early break on a zero product included.
func (e *inlineExp) unionShare(clauses [][]interest.ID) float64 {
	s := 0.0
	for k, t := range e.t {
		prod := 1.0
		for _, clause := range clauses {
			miss := 1.0
			for _, id := range clause {
				miss *= math.Exp(-t * e.m.Lambda(id))
			}
			prod *= 1 - miss
			if prod == 0 {
				break
			}
		}
		s += e.p[k] * prod
	}
	return s
}

// inlineExpSource is core.ModelSource's worldwide audience oracle on inline
// exp(): conditional expected audiences 1 + base·p, rounded and floored at
// 20. Its Catalog method lets the LP selector rank interests by share.
type inlineExpSource struct{ *inlineExp }

func (s inlineExpSource) Catalog() *interest.Catalog { return s.m.Catalog() }

func (s inlineExpSource) Floor() int64 { return 20 }

func (s inlineExpSource) reach(p float64) int64 {
	aud := population.ConditionalAudience(s.m.Population(), s.m.DemoShare(population.DemoFilter{}), p)
	return max(int64(math.Round(aud)), s.Floor())
}

func (s inlineExpSource) PotentialReach(ids []interest.ID) (int64, error) {
	return s.reach(s.conjunctionShare(ids)), nil
}

// PrefixReach runs one incremental survivor product over ids.
func (s inlineExpSource) PrefixReach(ids []interest.ID) ([]int64, error) {
	partial := s.survivors()
	out := make([]int64, len(ids))
	for i, id := range ids {
		s.and(partial, id)
		out[i] = s.reach(s.share(partial))
	}
	return out, nil
}

// naiveVAS is Samples.VAS over the resample idx (nil = every row) by the
// gather-copy-sort path the column kernel replaced: per combination size,
// gather the non-NaN cells, then stats.Quantile copies and sorts them.
func naiveVAS(s *core.Samples, q float64, idx []int) []float64 {
	out := make([]float64, s.MaxN)
	col := make([]float64, 0, len(s.AS))
	for n := range out {
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
			v = math.NaN()
		}
		out[n] = v
	}
	return out
}

// naiveEstimateNP is core.EstimateNP with every VAS vector taken by
// naiveVAS, over the same stats.BootstrapCIParallel streams.
func naiveEstimateNP(s *core.Samples, p float64, cfg core.EstimateConfig) (core.Estimate, error) {
	point, err := core.FitVAS(naiveVAS(s, p, nil), s.FloorValue)
	if err != nil {
		return core.Estimate{}, err
	}
	ci, _, err := stats.BootstrapCIParallel(s.NumUsers(), cfg.BootstrapIters, cfg.Parallelism, cfg.CILevel, cfg.Rand,
		func(idx []int) (float64, error) {
			fit, err := core.FitVAS(naiveVAS(s, p, idx), s.FloorValue)
			if err != nil {
				return 0, err
			}
			return fit.NP, nil
		})
	if err != nil {
		return core.Estimate{}, err
	}
	return core.Estimate{P: p, NP: point.NP, CI: ci, R2: point.R2, Fit: point,
		Strategy: s.Strategy, BootstrapIters: cfg.BootstrapIters}, nil
}

// scanSampleCount is Samples.SampleCountAt by the O(U) row scan the column
// index replaced.
func scanSampleCount(s *core.Samples, n int) int {
	count := 0
	for _, row := range s.AS {
		if n >= 1 && n-1 < len(row) && !math.IsNaN(row[n-1]) {
			count++
		}
	}
	return count
}
