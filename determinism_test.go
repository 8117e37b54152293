package nanotarget

// Determinism gates for the execution engines: under a fixed seed, every
// pipeline must produce byte-identical output (1) at Parallelism: 8 and
// Parallelism: 1 (the legacy sequential path), and (2) with the audience
// cache on and off. This is the repository's reproducibility contract —
// parallelism and caching may only change wall time.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"nanotarget/internal/audience"
	"nanotarget/internal/core"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/stats"
)

var determinismSeeds = []uint64{0, 1, 42}

func detWorld(t *testing.T, seed uint64) *World {
	t.Helper()
	return detWorldCache(t, seed, true)
}

// detWorldCache builds the shared small-scale test fixture (also the golden
// fixture — see golden_test.go) with an explicit audience cache setting.
// The scale options live HERE and only here: changing any of them
// invalidates every golden pin.
func detWorldCache(t *testing.T, seed uint64, cache bool) *World {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.Population.Seed = seed
	cfg.Population.CatalogSize = 4000
	cfg.Population.PanelSize = 150
	cfg.Population.ProfileMedian = 120
	cfg.Population.ActivityGrid = 128
	cfg.Cache.Disabled = !cache
	w, err := NewWorldFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sameFloat treats NaN==NaN as equal (missing cells) and otherwise requires
// bit-exact equality, not approximate closeness.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestCollectParallelismIsByteIdentical(t *testing.T) {
	for _, seed := range determinismSeeds {
		w := detWorld(t, seed)
		src := core.NewModelSource(w.Model())
		for _, sel := range []core.Selector{core.LeastPopular{}, core.Random{}} {
			seq, err := core.Collect(w.PanelUsers(), sel, src,
				core.CollectConfig{Seed: rng.New(seed), Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := core.Collect(w.PanelUsers(), sel, src,
				core.CollectConfig{Seed: rng.New(seed), Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(par.AS) != len(seq.AS) {
				t.Fatalf("seed %d %s: row counts differ", seed, sel.Name())
			}
			for ui := range seq.AS {
				for n := range seq.AS[ui] {
					if !sameFloat(seq.AS[ui][n], par.AS[ui][n]) {
						t.Fatalf("seed %d %s: AS[%d][%d] = %v sequential vs %v parallel",
							seed, sel.Name(), ui, n, seq.AS[ui][n], par.AS[ui][n])
					}
				}
			}
		}
	}
}

func TestEstimateNPParallelismIsByteIdentical(t *testing.T) {
	for _, seed := range determinismSeeds {
		w := detWorld(t, seed)
		src := core.NewModelSource(w.Model())
		samples, err := core.Collect(w.PanelUsers(), core.Random{}, src,
			core.CollectConfig{Seed: rng.New(seed), Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := core.EstimateNP(samples, 0.9, core.EstimateConfig{
			BootstrapIters: 400, CILevel: 0.95, Rand: rng.New(seed), Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.EstimateNP(samples, 0.9, core.EstimateConfig{
			BootstrapIters: 400, CILevel: 0.95, Rand: rng.New(seed), Parallelism: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloat(seq.NP, par.NP) || !sameFloat(seq.CI.Lo, par.CI.Lo) ||
			!sameFloat(seq.CI.Hi, par.CI.Hi) || !sameFloat(seq.R2, par.R2) {
			t.Fatalf("seed %d: estimate diverged: sequential %+v vs parallel %+v", seed, seq, par)
		}
	}
}

func TestBootstrapParallelismIsByteIdentical(t *testing.T) {
	stat := func(idx []int) (float64, error) {
		s := 0.0
		for _, i := range idx {
			s += float64(i * i)
		}
		return s, nil
	}
	for _, seed := range determinismSeeds {
		seq, err := stats.BootstrapParallel(137, 500, 1, rng.New(seed), stat)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			par, err := stats.BootstrapParallel(137, 500, workers, rng.New(seed), stat)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(seq) {
				t.Fatalf("seed %d workers %d: %d values vs %d", seed, workers, len(par), len(seq))
			}
			for i := range seq {
				if !sameFloat(seq[i], par[i]) {
					t.Fatalf("seed %d workers %d: value %d diverged", seed, workers, i)
				}
			}
		}
	}
}

func TestNanotargetingParallelismIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a world with 22-interest profiles")
	}
	w := detWorld(t, 1)
	seq, err := w.RunNanotargeting(NanotargetingOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := w.RunNanotargeting(NanotargetingOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := seq.Rows(), par.Rows()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("campaign row %d diverged:\nsequential %+v\nparallel   %+v", i, a[i], b[i])
		}
	}
	if seq.Successes != par.Successes || seq.TotalCostCents != par.TotalCostCents {
		t.Fatalf("aggregates diverged: %+v vs %+v", seq, par)
	}
}

// TestAudienceCacheCollectIsByteIdentical gates Collect and EstimateNP:
// sample tables and N_P estimates must be bit-identical with the audience
// cache on and off, for both selection strategies.
func TestAudienceCacheCollectIsByteIdentical(t *testing.T) {
	for _, seed := range determinismSeeds {
		wOn := detWorldCache(t, seed, true)
		wOff := detWorldCache(t, seed, false)
		if !wOn.Audience().Enabled() || wOff.Audience().Enabled() {
			t.Fatal("cache knob did not take effect")
		}
		for _, sel := range []core.Selector{core.LeastPopular{}, core.Random{}} {
			cached, err := core.Collect(wOn.PanelUsers(), sel, core.NewEngineSource(wOn.Audience()),
				core.CollectConfig{Seed: rng.New(seed), Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := core.Collect(wOff.PanelUsers(), sel, core.NewEngineSource(wOff.Audience()),
				core.CollectConfig{Seed: rng.New(seed), Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(cached.AS) != len(plain.AS) {
				t.Fatalf("seed %d %s: row counts differ", seed, sel.Name())
			}
			for ui := range plain.AS {
				for n := range plain.AS[ui] {
					if !sameFloat(plain.AS[ui][n], cached.AS[ui][n]) {
						t.Fatalf("seed %d %s: AS[%d][%d] = %v uncached vs %v cached",
							seed, sel.Name(), ui, n, plain.AS[ui][n], cached.AS[ui][n])
					}
				}
			}
			est1, err := core.EstimateNP(cached, 0.9, core.EstimateConfig{
				BootstrapIters: 200, CILevel: 0.95, Rand: rng.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			est2, err := core.EstimateNP(plain, 0.9, core.EstimateConfig{
				BootstrapIters: 200, CILevel: 0.95, Rand: rng.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloat(est1.NP, est2.NP) || !sameFloat(est1.CI.Lo, est2.CI.Lo) ||
				!sameFloat(est1.CI.Hi, est2.CI.Hi) {
				t.Fatalf("seed %d %s: estimate diverged: cached %+v vs uncached %+v",
					seed, sel.Name(), est1, est2)
			}
		}
		if st := wOn.AudienceCacheStats(); st.Total().Hits == 0 {
			t.Fatalf("seed %d: cache saw no hits; the gate is vacuous (%+v)", seed, st)
		}
	}
}

// TestAudienceCacheNanotargetingIsByteIdentical gates RunNanotargeting:
// Table 2 must be identical with the cache on and off.
func TestAudienceCacheNanotargetingIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a world with 22-interest profiles")
	}
	for _, seed := range determinismSeeds {
		wOn := detWorldCache(t, seed, true)
		wOff := detWorldCache(t, seed, false)
		cached, err := wOn.RunNanotargeting(NanotargetingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := wOff.RunNanotargeting(NanotargetingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a, b := cached.Rows(), plain.Rows()
		if len(a) != len(b) {
			t.Fatalf("seed %d: row counts differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: campaign row %d diverged:\ncached   %+v\nuncached %+v", seed, i, a[i], b[i])
			}
		}
		if cached.Successes != plain.Successes || cached.TotalCostCents != plain.TotalCostCents {
			t.Fatalf("seed %d: aggregates diverged", seed)
		}
		if st := wOn.AudienceCacheStats(); st.Total().Hits == 0 {
			t.Fatalf("seed %d: nested campaign subsets should share cached prefixes (%+v)", seed, st)
		}
	}
}

// TestAudienceCachePolicyEvaluationIsByteIdentical gates EvaluatePolicies.
func TestAudienceCachePolicyEvaluationIsByteIdentical(t *testing.T) {
	for _, seed := range determinismSeeds {
		wOn := detWorldCache(t, seed, true)
		wOff := detWorldCache(t, seed, false)
		cached, err := wOn.EvaluatePolicies(PolicyOptions{Victims: 20, InterestCount: 12, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := wOff.EvaluatePolicies(PolicyOptions{Victims: 20, InterestCount: 12, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(cached) != len(plain) {
			t.Fatalf("seed %d: outcome counts differ", seed)
		}
		for i := range plain {
			if cached[i] != plain[i] {
				t.Fatalf("seed %d: policy %q diverged:\ncached   %+v\nuncached %+v",
					seed, plain[i].Policy, cached[i], plain[i])
			}
		}
		if st := wOn.AudienceCacheStats(); st.Total().Hits == 0 {
			t.Fatalf("seed %d: policy replay should re-realize cached conjunctions (%+v)", seed, st)
		}
	}
}

// TestRowKernelIsByteIdentical gates the inclusion-row kernel: a world
// evaluating on precomputed rows must produce byte-identical output to the
// same model evaluated by the inline-exp() reference (inlineExpSource in
// reference_test.go), across the full §4 pipeline — sample collection for
// both selection strategies over the same panel, N_P estimation — plus the
// flexible_spec union path, which is the one evaluation shape the audience
// cache never covers. This is the "hoisted, not reformulated" contract of
// internal/population/rows.go.
func TestRowKernelIsByteIdentical(t *testing.T) {
	for _, seed := range determinismSeeds {
		wOn := detWorld(t, seed)
		off := newInlineExp(wOn.Model())
		for _, sel := range []core.Selector{core.LeastPopular{}, core.Random{}} {
			rows, err := core.Collect(wOn.PanelUsers(), sel, core.NewEngineSource(wOn.Audience()),
				core.CollectConfig{Seed: rng.New(seed), Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			exp, err := core.Collect(wOn.PanelUsers(), sel, inlineExpSource{off},
				core.CollectConfig{Seed: rng.New(seed), Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows.AS) != len(exp.AS) {
				t.Fatalf("seed %d %s: row counts differ", seed, sel.Name())
			}
			for ui := range exp.AS {
				for n := range exp.AS[ui] {
					if !sameFloat(exp.AS[ui][n], rows.AS[ui][n]) {
						t.Fatalf("seed %d %s: AS[%d][%d] = %v inline-exp vs %v kernel",
							seed, sel.Name(), ui, n, exp.AS[ui][n], rows.AS[ui][n])
					}
				}
			}
			estRows, err := core.EstimateNP(rows, 0.9, core.EstimateConfig{
				BootstrapIters: 200, CILevel: 0.95, Rand: rng.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			estExp, err := core.EstimateNP(exp, 0.9, core.EstimateConfig{
				BootstrapIters: 200, CILevel: 0.95, Rand: rng.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloat(estRows.NP, estExp.NP) || !sameFloat(estRows.CI.Lo, estExp.CI.Lo) ||
				!sameFloat(estRows.CI.Hi, estExp.CI.Hi) {
				t.Fatalf("seed %d %s: estimate diverged: kernel %+v vs inline-exp %+v",
					seed, sel.Name(), estRows, estExp)
			}
		}
		// The collected reaches are rounded, so a kernel drifting by an ulp
		// can hide behind them; gate the unrounded prefix shares the world
		// served directly.
		for _, u := range wOn.PanelUsers()[:30] {
			ids := u.Interests[:min(len(u.Interests), core.MaxCombinationInterests)]
			got := wOn.Audience().AppendPrefixShares(nil, ids)
			partial := off.survivors()
			for i, id := range ids {
				off.and(partial, id)
				if want := off.share(partial); !sameFloat(got[i], want) {
					t.Fatalf("seed %d user %d prefix %d: kernel share %v != inline-exp %v",
						seed, u.ID, i+1, got[i], want)
				}
			}
		}
		// flexible_spec unions (mixed clause widths) evaluate through the
		// dedicated kernel restructure; gate them directly.
		r := rng.New(seed ^ 0xBEEF)
		for trial := 0; trial < 40; trial++ {
			clauses := make([][]interest.ID, 1+r.Intn(5))
			for c := range clauses {
				clause := make([]interest.ID, 1+r.Intn(4))
				for i := range clause {
					clause[i] = interest.ID(r.Intn(wOn.CatalogSize()))
				}
				clauses[c] = clause
			}
			a := wOn.Model().UnionConjunctionShare(clauses)
			b := off.unionShare(clauses)
			if !sameFloat(a, b) {
				t.Fatalf("seed %d trial %d: union kernel %v != inline-exp %v", seed, trial, a, b)
			}
		}
		if n, _ := wOn.Model().RowStats(); n == 0 {
			t.Fatalf("seed %d: kernel world materialized no rows; the gate is vacuous", seed)
		}
	}
}

// TestColumnKernelIsByteIdentical gates the columnar bootstrap kernel:
// samples estimated on presorted panel columns with counting quantiles must
// produce byte-identical output to the same samples run down the naive
// gather-copy-sort resample path (naiveVAS and naiveEstimateNP in
// reference_test.go) — VAS vectors at every study quantile, N_P point
// estimates and bootstrap percentile CIs, for both selection strategies, at
// workers 1 and 4, and every row of the façade's §4 study. This is the
// "multiset quantile of a resample equals the quantile of its sorted
// expansion" contract of internal/core/columns.go.
func TestColumnKernelIsByteIdentical(t *testing.T) {
	for _, seed := range determinismSeeds {
		w := detWorld(t, seed)
		for _, sel := range []core.Selector{core.LeastPopular{}, core.Random{}} {
			kernel, err := core.Collect(w.PanelUsers(), sel, core.NewEngineSource(w.Audience()),
				core.CollectConfig{Seed: rng.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []float64{0.5, 0.8, 0.9, 0.95} {
				a, b := kernel.VAS(q), naiveVAS(kernel, q, nil)
				for n := range a {
					if !sameFloat(a[n], b[n]) {
						t.Fatalf("seed %d %s: VAS(%v)[%d] = %v kernel vs %v naive",
							seed, sel.Name(), q, n, a[n], b[n])
					}
				}
			}
			for _, workers := range []int{1, 4} {
				ek, err := core.EstimateNP(kernel, 0.9, core.EstimateConfig{
					BootstrapIters: 300, CILevel: 0.95, Rand: rng.New(seed), Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				en, err := naiveEstimateNP(kernel, 0.9, core.EstimateConfig{
					BootstrapIters: 300, CILevel: 0.95, Rand: rng.New(seed), Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloat(ek.NP, en.NP) || !sameFloat(ek.CI.Lo, en.CI.Lo) ||
					!sameFloat(ek.CI.Hi, en.CI.Hi) || !sameFloat(ek.R2, en.R2) {
					t.Fatalf("seed %d %s workers %d: estimate diverged: kernel %+v vs naive %+v",
						seed, sel.Name(), workers, ek, en)
				}
			}
			if kernel.SampleCountAt(1) != scanSampleCount(kernel, 1) ||
				kernel.SampleCountAt(kernel.MaxN) != scanSampleCount(kernel, kernel.MaxN) {
				t.Fatalf("seed %d %s: SampleCountAt diverged between index and scan", seed, sel.Name())
			}
		}
		// The façade's full §4 study (collection + point fits + bootstrap
		// CIs for both strategies) runs on the kernel; every row, at every
		// P the study estimates, must equal the naive path re-estimating
		// the study's own samples from the same bootstrap stream
		// (core.RunStudy's "boot/<strategy>/<P>" derivation).
		const iters = 150
		study, err := w.EstimateUniqueness(UniquenessOptions{BootstrapIters: iters})
		if err != nil {
			t.Fatal(err)
		}
		rows := study.Estimates()
		if len(rows) == 0 {
			t.Fatalf("seed %d: study produced no rows", seed)
		}
		for _, row := range rows {
			est, err := naiveEstimateNP(study.samples[row.Strategy], row.P, core.EstimateConfig{
				BootstrapIters: iters, CILevel: 0.95,
				Rand: w.root.Derive("uniqueness").Derive(fmt.Sprintf("boot/%s/%.3f", row.Strategy, row.P)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloat(row.NP, est.NP) || !sameFloat(row.CILo, est.CI.Lo) ||
				!sameFloat(row.CIHi, est.CI.Hi) || !sameFloat(row.R2, est.R2) {
				t.Fatalf("seed %d: façade study row %s P=%v diverged:\nkernel %+v\nnaive  %+v",
					seed, row.Strategy, row.P, row, est)
			}
		}
	}
}

// TestCanonicalModeWorkersSelfConsistent gates the relaxed ModeCanonical
// contract the way the exact gates above gate bit-identity: a canonical
// engine evaluating an adversarial permuted-probe workload must return
// byte-identical shares at workers 1 and 4, across separate engine
// instances (so the property cannot lean on shared cache state), and
// byte-identical to the sorted-order model evaluation that defines the
// canonical value. The default mode remains Exact — the cache-on ≡
// cache-off gates above are unchanged and keep holding.
func TestCanonicalModeWorkersSelfConsistent(t *testing.T) {
	for _, seed := range determinismSeeds {
		w := detWorld(t, seed)
		if w.AudienceCacheMode() != audience.ModeExact {
			t.Fatal("worlds must default to the exact cache mode")
		}
		m := w.Model()
		r := rng.New(seed ^ 0xC0FFEE)
		// 30 interest sets, each probed under 6 different orderings,
		// interleaved so concurrent workers race on the same sets.
		var queries [][]interest.ID
		for s := 0; s < 30; s++ {
			n := 3 + r.Intn(10)
			base := make([]interest.ID, n)
			for i := range base {
				base[i] = interest.ID(r.Intn(m.Catalog().Len()))
			}
			for p := 0; p < 6; p++ {
				perm := append([]interest.ID{}, base...)
				r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				queries = append(queries, perm)
			}
		}
		var baseline []float64
		for _, workers := range []int{1, 4} {
			eng := audience.Canonical(m) // fresh engine per worker count
			out := eng.EvalBatch(queries, workers)
			if baseline == nil {
				baseline = out
				// The canonical value is defined as the exact share of the
				// sorted ordering; check it for every query once.
				for qi, q := range queries {
					sorted := append([]interest.ID{}, q...)
					slices.Sort(sorted)
					if want := m.ConjunctionShare(sorted); !sameFloat(out[qi], want) {
						t.Fatalf("seed %d query %d: canonical %v != sorted-order model %v",
							seed, qi, out[qi], want)
					}
				}
				continue
			}
			for qi := range baseline {
				if !sameFloat(out[qi], baseline[qi]) {
					t.Fatalf("seed %d query %d: workers=4 %v != workers=1 %v",
						seed, qi, out[qi], baseline[qi])
				}
			}
		}
	}
}

// TestGroupAnalysisParallelismIsByteIdentical gates the Appendix C group
// path: RunGroupAnalysis at workers 1 and 4 must produce byte-identical
// estimates for every (group, strategy) cell — each job derives its random
// streams from its own (group, selector) labels, never execution order — in
// both the group-conditional default and the legacy worldwide mode.
func TestGroupAnalysisParallelismIsByteIdentical(t *testing.T) {
	for _, seed := range determinismSeeds {
		w := detWorld(t, seed)
		for _, worldwide := range []bool{false, true} {
			run := func(workers int) []core.GroupResult {
				res, err := core.RunGroupAnalysis(w.PanelUsers(), core.NewEngineSource(w.Audience()),
					core.GroupConfig{
						Groups:             core.GenderGroups(),
						Selectors:          []core.Selector{core.LeastPopular{}, core.Random{}},
						P:                  0.9,
						BootstrapIters:     150,
						Rand:               rng.New(seed),
						Parallelism:        workers,
						WorldwideAudiences: worldwide,
					})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq, par := run(1), run(4)
			if len(seq) != len(par) {
				t.Fatalf("seed %d worldwide=%v: row counts differ", seed, worldwide)
			}
			for i := range seq {
				a, b := seq[i], par[i]
				if a.Label != b.Label || a.Strategy != b.Strategy || a.Users != b.Users {
					t.Fatalf("seed %d worldwide=%v: row %d identity diverged: %+v vs %+v",
						seed, worldwide, i, a, b)
				}
				if !sameFloat(a.Estimate.NP, b.Estimate.NP) ||
					!sameFloat(a.Estimate.CI.Lo, b.Estimate.CI.Lo) ||
					!sameFloat(a.Estimate.CI.Hi, b.Estimate.CI.Hi) ||
					!sameFloat(a.Estimate.R2, b.Estimate.R2) {
					t.Fatalf("seed %d worldwide=%v: %s/%s diverged: sequential %+v vs parallel %+v",
						seed, worldwide, a.Label, a.Strategy, a.Estimate, b.Estimate)
				}
			}
		}
	}
}

func TestPolicyEvaluationParallelismIsByteIdentical(t *testing.T) {
	w := detWorld(t, 42)
	seq, err := w.EvaluatePolicies(PolicyOptions{Victims: 25, InterestCount: 12, Trials: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := w.EvaluatePolicies(PolicyOptions{Victims: 25, InterestCount: 12, Trials: 2, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("outcome counts differ")
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("policy %q diverged:\nsequential %+v\nparallel   %+v", seq[i].Policy, seq[i], par[i])
		}
	}
}

// worldBuildPins are the digests of the worlds TestWorldBuildIsByteIdentical
// builds, taken from the sequential, per-draw-CDF, fmt-named catalog and
// single-goroutine calibration grids that world construction used before
// it was optimized. Any change to them is a change in what every replica
// serves and in every paper number.
var worldBuildPins = []struct {
	seed                  uint64
	size                  int
	catalog, model, panel string
}{
	{1, 4000, "9ad6981e4347947a3b72369c874813b6", "181eeadf3db5846365dbf27f50972dde", "e2df026679a493105f8457feb6328774"},
	{1, 20000, "912581ae32752dc6cbfa7453f0a0d244", "02fb236c0e9d6f669d00b325994e9ceb", "c2db85b4b88d95ddcfe9f74c184051df"},
	{42, 4000, "b051bc04694cff31a5e33a0c607fa713", "f3b563f71929a0ae39f06cd6a021feb9", "dc627e98618d1d795d0adce8b86b3156"},
	{42, 20000, "66a7c8372ceb00728c86758f830c652d", "282e19ff9d3e0baa71b0ebac59943bfa", "ee7cc51ce5fcab32e5a744a1fa3cc014"},
}

// TestWorldBuildIsByteIdentical gates world construction bit for bit: the
// catalog (names, categories, share bits, the popularity order), the model
// (every λ, the activity grid, the count table untilted and at one warmed
// demographic tilt) and NewWorldFromConfig's panel must hash to the pinned
// digests at seeds 1 and 42 and two catalog sizes. CI runs it at -cpu 1,2,4,
// since the model's calibration grids are spread over GOMAXPROCS.
func TestWorldBuildIsByteIdentical(t *testing.T) {
	tilt := population.DefaultDemographics().TiltFor(population.GenderFemale, population.AgeAdolescence, "AR")
	for _, pin := range worldBuildPins {
		cfg := DefaultWorldConfig()
		cfg.Population.Seed = pin.seed
		cfg.Population.CatalogSize = pin.size
		cfg.Population.PanelSize = 150
		cfg.Population.ProfileMedian = 120
		w, err := NewWorldFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := w.Model()

		catalog := newDigest()
		cat := m.Catalog()
		for i := 0; i < cat.Len(); i++ {
			in := cat.MustGet(interest.ID(i))
			catalog.str(in.Name)
			catalog.str(in.Category)
			catalog.f64(in.Share)
		}
		for _, id := range cat.RarestFirst() {
			catalog.u64(uint64(id))
		}

		model := newDigest()
		for i := 0; i < cat.Len(); i++ {
			model.f64(m.Lambda(interest.ID(i)))
		}
		actT, actP := m.ActivityGrid()
		model.f64s(actT)
		model.f64s(actP)
		model.f64s(m.CountTable(0))
		m.WarmTilts(tilt)
		model.f64s(m.CountTable(tilt))

		panel := newDigest()
		for _, u := range w.panel.Users {
			panel.u64(uint64(u.ID))
			panel.str(u.Country)
			panel.u64(uint64(u.Gender))
			panel.u64(uint64(u.Age))
			panel.f64(u.Activity)
			panel.f64(u.Tilt)
			panel.u64(uint64(len(u.Interests)))
			for _, id := range u.Interests {
				panel.u64(uint64(id))
			}
		}

		for _, part := range []struct{ name, got, want string }{
			{"catalog", catalog.sum(), pin.catalog},
			{"model", model.sum(), pin.model},
			{"panel", panel.sum(), pin.panel},
		} {
			if part.got != part.want {
				t.Errorf("seed %d, %d interests: %s digest %s, pinned %s", pin.seed, pin.size, part.name, part.got, part.want)
			}
		}
	}
}

// digest hashes a sequence of fixed-width values and length-prefixed
// strings, so no two different sequences share an encoding.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) f64s(vs ...[]float64) {
	for _, v := range vs {
		d.u64(uint64(len(v)))
		for _, x := range v {
			d.f64(x)
		}
	}
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }
