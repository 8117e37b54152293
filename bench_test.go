package nanotarget

// Benchmark harness: one benchmark per table and figure of the paper (see
// DESIGN.md §4 for the experiment index), plus ablation benches for the
// design choices DESIGN.md §6 calls out. All benches share one mid-scale
// world fixture (b.N iterations re-run the analysis, not world
// construction) so `go test -bench=.` finishes in minutes while exercising
// the same code paths as the full-scale cmd tools.

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"nanotarget/internal/audience"
	"nanotarget/internal/core"
	"nanotarget/internal/countermeasures"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/stats"
)

var (
	benchOnce  sync.Once
	benchWorld *World
)

func getBenchWorld(b *testing.B) *World {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultWorldConfig()
		cfg.Population.Seed = 1
		cfg.Population.CatalogSize = 20000
		cfg.Population.PanelSize = 600
		cfg.Population.ProfileMedian = 200
		cfg.Population.ActivityGrid = 256
		w, err := NewWorldFromConfig(cfg)
		if err != nil {
			panic(err)
		}
		benchWorld = w
	})
	return benchWorld
}

// BenchmarkFigure1 regenerates the interests-per-user CDF (§3, Fig 1).
func BenchmarkFigure1(b *testing.B) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sizes := make([]float64, 0, w.PanelSize())
		for _, u := range w.PanelUsers() {
			sizes = append(sizes, float64(len(u.Interests)))
		}
		ecdf, err := stats.NewECDF(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if ecdf.InverseAt(0.5) <= 0 {
			b.Fatal("degenerate CDF")
		}
	}
}

// BenchmarkFigure2 regenerates the interest audience-size CDF (§3, Fig 2).
func BenchmarkFigure2(b *testing.B) {
	w := getBenchWorld(b)
	cat := w.Model().Catalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sizes := make([]float64, cat.Len())
		for id := 0; id < cat.Len(); id++ {
			sizes[id] = float64(cat.AudienceSize(interest.ID(id), w.Population()))
		}
		qs, err := stats.Quantiles(sizes, []float64{0.25, 0.5, 0.75})
		if err != nil || qs[1] <= 0 {
			b.Fatal("bad quantiles")
		}
	}
}

// benchVAS collects samples and fits VAS curves for one selector — the
// machinery behind Figures 3, 4 and 5.
func benchVAS(b *testing.B, sel core.Selector, qs []float64) {
	w := getBenchWorld(b)
	src := core.NewModelSource(w.Model())
	users := w.PanelUsers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := core.Collect(users, sel, src, core.CollectConfig{Seed: rng.New(uint64(i))})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range qs {
			if _, err := core.FitVAS(samples.VAS(q), samples.FloorValue); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure3 regenerates the model illustration (VAS(50), VAS(90) for
// random selection with fits).
func BenchmarkFigure3(b *testing.B) { benchVAS(b, core.Random{}, []float64{0.5, 0.9}) }

// BenchmarkFigure4 regenerates the least-popular VAS curves and fits.
func BenchmarkFigure4(b *testing.B) {
	benchVAS(b, core.LeastPopular{}, []float64{0.5, 0.8, 0.9, 0.95})
}

// BenchmarkFigure5 regenerates the random-selection VAS curves and fits.
func BenchmarkFigure5(b *testing.B) {
	benchVAS(b, core.Random{}, []float64{0.5, 0.8, 0.9, 0.95})
}

// BenchmarkTable1 regenerates the N_P table (both strategies, four Ps,
// bootstrap CIs).
func BenchmarkTable1(b *testing.B) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study, err := w.EstimateUniqueness(UniquenessOptions{BootstrapIters: 200})
		if err != nil {
			b.Fatal(err)
		}
		if len(study.Estimates()) != 8 {
			b.Fatal("incomplete table")
		}
	}
}

// BenchmarkTable2 regenerates the 21-campaign nanotargeting experiment.
func BenchmarkTable2(b *testing.B) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := w.RunNanotargeting(NanotargetingOptions{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows()) != 21 {
			b.Fatal("incomplete experiment")
		}
	}
}

// BenchmarkFigure8 regenerates the gender analysis (N_0.9 by gender).
func BenchmarkFigure8(b *testing.B) { benchGroups(b, ByGender) }

// BenchmarkFigure9 regenerates the age-group analysis.
func BenchmarkFigure9(b *testing.B) { benchGroups(b, ByAge) }

// BenchmarkFigure10 regenerates the country analysis.
func BenchmarkFigure10(b *testing.B) { benchGroups(b, ByCountry) }

func benchGroups(b *testing.B, g Grouping) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.GroupUniqueness(g, 0.9, 100)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkCountermeasures regenerates the §8.3 policy evaluation.
func BenchmarkCountermeasures(b *testing.B) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := w.EvaluatePolicies(PolicyOptions{Victims: 30, Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("no outcomes")
		}
	}
}

// BenchmarkFDVTRisk regenerates the §6 risk report (Fig 7's data).
func BenchmarkFDVTRisk(b *testing.B) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := w.InterestRisk(i % w.PanelSize())
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationFloor measures the estimator under the three platform
// reach floors the paper discusses (20 in 2017, 100 with the workaround,
// 1000 today) — supporting the §4.1 claim that the method still applies at
// higher floors.
func BenchmarkAblationFloor(b *testing.B) {
	for _, floor := range []int64{20, 100, 1000} {
		b.Run(floorName(floor), func(b *testing.B) {
			w := getBenchWorld(b)
			src := core.NewModelSource(w.Model())
			src.MinReach = floor
			users := w.PanelUsers()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				samples, err := core.Collect(users, core.Random{}, src,
					core.CollectConfig{Seed: rng.New(uint64(i))})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.FitVAS(samples.VAS(0.9), samples.FloorValue); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func floorName(f int64) string {
	switch f {
	case 20:
		return "floor-20-era2017"
	case 100:
		return "floor-100-workaround"
	default:
		return "floor-1000-era2020"
	}
}

// BenchmarkAblationQuadrature measures audience-query cost vs quadrature
// grid resolution (accuracy/latency trade-off of the analytic audience
// counter).
func BenchmarkAblationQuadrature(b *testing.B) {
	icfg := interest.DefaultConfig()
	icfg.Size = 5000
	cat, err := interest.Generate(icfg, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	for _, grid := range []int{128, 512, 2048} {
		b.Run(gridName(grid), func(b *testing.B) {
			pcfg := population.DefaultConfig(cat)
			pcfg.ActivityGridSize = grid
			m, err := population.NewModel(pcfg)
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]interest.ID, 25)
			for i := range ids {
				ids[i] = interest.ID(i * 199)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.ConjunctionShare(ids) < 0 {
					b.Fatal("negative share")
				}
			}
		})
	}
}

func gridName(g int) string {
	switch g {
	case 128:
		return "grid-128"
	case 512:
		return "grid-512"
	default:
		return "grid-2048"
	}
}

// BenchmarkAblationSelector compares the three selection strategies'
// collection cost (LP sorts per profile; MP is the sanity baseline).
func BenchmarkAblationSelector(b *testing.B) {
	selectors := []core.Selector{core.LeastPopular{}, core.Random{}, core.MostPopular{}}
	for _, sel := range selectors {
		b.Run("selector-"+sel.Name(), func(b *testing.B) {
			w := getBenchWorld(b)
			src := core.NewModelSource(w.Model())
			users := w.PanelUsers()[:200]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Collect(users, sel, src,
					core.CollectConfig{Seed: rng.New(uint64(i))}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBootstrap measures CI cost scaling in resample count
// (the paper used 10,000; how much does CI stability cost?).
func BenchmarkAblationBootstrap(b *testing.B) {
	w := getBenchWorld(b)
	src := core.NewModelSource(w.Model())
	samples, err := core.Collect(w.PanelUsers(), core.Random{}, src,
		core.CollectConfig{Seed: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{100, 1000, 10000} {
		b.Run(bootName(iters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.EstimateNP(samples, 0.9, core.EstimateConfig{
					BootstrapIters: iters,
					CILevel:        0.95,
					Rand:           rng.New(uint64(i)),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func bootName(n int) string {
	switch n {
	case 100:
		return "boot-100"
	case 1000:
		return "boot-1k"
	default:
		return "boot-10k"
	}
}

// BenchmarkAblationPolicySweep measures the §8.3 interest-cap sweep the
// countermeasures command exposes.
func BenchmarkAblationPolicySweep(b *testing.B) {
	w := getBenchWorld(b)
	victims := w.PanelUsers()[:20]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, limit := range []int{5, 9, 15, 25} {
			_, err := countermeasures.Evaluate(countermeasures.EvalConfig{
				Model:         w.Model(),
				Victims:       victims,
				InterestCount: 25,
				Trials:        1,
				Rand:          rng.New(uint64(i)),
			}, []countermeasures.Policy{countermeasures.MaxInterests{Limit: limit}})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensionDemographics measures the §9 future-work study
// (demographics + interests uniqueness).
func BenchmarkExtensionDemographics(b *testing.B) {
	w := getBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boost, err := w.EstimateDemographicBoost(DemographicKnowledgeOptions{
			Country:        true,
			Gender:         true,
			AgeYears:       true,
			AgeSlack:       1,
			BootstrapIters: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		if boost.Saved <= 0 {
			b.Fatal("demographics saved nothing")
		}
	}
}

// BenchmarkAblationParallelism measures the parallel engine's scaling on
// the two hottest paths — sample collection (the machinery behind Figs 3–5)
// and the bootstrap (Table 1's CIs) — at 1 worker (sequential) versus
// one worker per core. Output is byte-identical
// across the variants (see determinism_test.go); only wall time may differ.
func BenchmarkAblationParallelism(b *testing.B) {
	w := getBenchWorld(b)
	src := core.NewModelSource(w.Model())
	users := w.PanelUsers()
	samples, err := core.Collect(users, core.Random{}, src,
		core.CollectConfig{Seed: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		b.Run("collect-"+workersName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Collect(users, core.Random{}, src, core.CollectConfig{
					Seed:        rng.New(uint64(i)),
					Parallelism: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("bootstrap-"+workersName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateNP(samples, 0.9, core.EstimateConfig{
					BootstrapIters: 2000,
					CILevel:        0.95,
					Rand:           rng.New(uint64(i)),
					Parallelism:    workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func workersName(w int) string {
	if w == 1 {
		return "workers-1"
	}
	return "workers-percore"
}

// --- Audience engine (the shared reach oracle) ---

// audienceProbeWorkload builds the attacker's §4 probe pattern: `bases`
// conjunction chains, each queried at every prefix length up to maxN — the
// workload every subsystem funnels into the audience engine. Queries repeat
// overlapping ordered prefixes, so a warmed cache serves them from memory.
func audienceProbeWorkload(cat *interest.Catalog, bases, maxN int) [][]interest.ID {
	queries := make([][]interest.ID, 0, bases*maxN)
	for u := 0; u < bases; u++ {
		base := make([]interest.ID, maxN)
		for i := range base {
			base[i] = interest.ID((u*4409 + i*811) % cat.Len())
		}
		for n := 1; n <= maxN; n++ {
			queries = append(queries, base[:n])
		}
	}
	return queries
}

// BenchmarkAudienceQueries compares the three regimes of the repeated-
// conjunction hot path: uncached model evaluation (the pre-engine
// behaviour), a cold cache (first exposure: misses plus incremental prefix
// extension), and a warm cache (steady-state attacker probing: hits).
// The determinism gate guarantees all three produce identical bits; this
// bench records what the cache buys in wall time — the warm/cold ratio is
// the headline number tracked in BENCH_audience.json.
func BenchmarkAudienceQueries(b *testing.B) {
	w := getBenchWorld(b)
	m := w.Model()
	queries := audienceProbeWorkload(m.Catalog(), 40, 25)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if m.ConjunctionShare(q) < 0 {
					b.Fatal("negative share")
				}
			}
		}
	})
	b.Run("cold-cache", func(b *testing.B) {
		eng := audience.Cached(m)
		for i := 0; i < b.N; i++ {
			eng.Reset()
			for _, q := range queries {
				if eng.ConjunctionShare(q) < 0 {
					b.Fatal("negative share")
				}
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		eng := audience.Cached(m)
		for _, q := range queries {
			eng.ConjunctionShare(q) // warm
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if eng.ConjunctionShare(q) < 0 {
					b.Fatal("negative share")
				}
			}
		}
	})
}

// BenchmarkAudienceConditional measures the composite (DemoFilter,
// conjunction) path the Appendix C group-conditional collection rides:
// every query is an ExpectedAudienceConditional under one of the group
// filters. The warm demo level must stay at 0 allocs/op — the same
// envelope the plain warm conjunction path is gated at.
func BenchmarkAudienceConditional(b *testing.B) {
	w := getBenchWorld(b)
	m := w.Model()
	queries := audienceProbeWorkload(m.Catalog(), 40, 25)
	filters := []population.DemoFilter{
		{Genders: []population.Gender{population.GenderFemale}},
		{AgeMin: 20, AgeMax: 39},
		{Countries: []string{"ES"}},
	}
	b.Run("demo-warm", func(b *testing.B) {
		eng := audience.Cached(m)
		for qi, q := range queries {
			eng.ExpectedAudienceConditional(filters[qi%len(filters)], q) // warm
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for qi, q := range queries {
				if eng.ExpectedAudienceConditional(filters[qi%len(filters)], q) < 0 {
					b.Fatal("negative audience")
				}
			}
		}
	})
}

// audiencePermutedWorkload builds the ADVERSARIAL probe pattern of the
// reach-estimate abuse literature (Faizullabhoy & Korolova; reused on
// LinkedIn by Merino et al.): a fixed collection of interest SETS, each
// re-queried under fresh random orderings, so semantically identical
// queries share no ordered prefix. Each pass holds one new permutation per
// set; cycling passes keeps the orderings novel for many iterations, which
// is what defeats the ordered-prefix cache (every pass inserts sets*n fresh
// prefixes, so old orderings are evicted long before they could repeat).
func audiencePermutedWorkload(cat *interest.Catalog, sets, n, passes int, seed uint64) [][][]interest.ID {
	r := rng.New(seed)
	bases := make([][]interest.ID, sets)
	for u := range bases {
		base := make([]interest.ID, n)
		for i := range base {
			base[i] = interest.ID((u*4409 + i*811) % cat.Len())
		}
		bases[u] = base
	}
	out := make([][][]interest.ID, passes)
	for p := range out {
		pass := make([][]interest.ID, sets)
		for u, base := range bases {
			perm := append([]interest.ID{}, base...)
			r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			pass[u] = perm
		}
		out[p] = pass
	}
	return out
}

// BenchmarkAudiencePermuted is the acceptance benchmark for the set-level
// cache: the adversarial permuted-probe workload above, served warm by an
// exact-mode engine (permutations miss the ordered level and re-evaluate)
// versus a canonical-mode engine (every permutation of a warmed set hits
// one set-level entry). The canonical/exact ratio is the headline number in
// BENCH_audience.json; CI gates it at >= 2x, the recorded margin is far
// larger.
func BenchmarkAudiencePermuted(b *testing.B) {
	w := getBenchWorld(b)
	m := w.Model()
	passes := audiencePermutedWorkload(m.Catalog(), 40, 18, 16, 123)
	for _, mode := range []audience.Mode{audience.ModeExact, audience.ModeCanonical} {
		b.Run(mode.String(), func(b *testing.B) {
			eng := audience.New(m, audience.Options{Mode: mode})
			for _, q := range passes[0] {
				eng.ConjunctionShare(q) // warm: every SET is now known
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range passes[1+i%(len(passes)-1)] {
					if eng.ConjunctionShare(q) < 0 {
						b.Fatal("negative share")
					}
				}
			}
		})
	}
}

// getExpModel builds (once) a model over the bench world's catalog with the
// inclusion-row kernel DISABLED — the legacy inline-exp() evaluation the
// kernel benchmarks compare against. Same catalog, population and grid as
// the bench world, so ns/op are directly comparable.
func getExpModel(b *testing.B) *population.Model {
	b.Helper()
	w := getBenchWorld(b)
	expModelOnce.Do(func() {
		cfg := population.DefaultConfig(w.Model().Catalog())
		cfg.ActivityGridSize = 256
		cfg.DisableRowKernel = true
		m, err := population.NewModel(cfg)
		if err != nil {
			panic(err)
		}
		expModel = m
	})
	return expModel
}

var (
	expModelOnce sync.Once
	expModel     *population.Model
)

// benchConjunction returns the 18-interest probe the kernel benches share —
// the ISSUE's motivating shape: a cache-cold conjunction whose evaluation
// under inline exp() costs one transcendental per (interest, grid point).
func benchConjunction(cat *interest.Catalog) []interest.ID {
	ids := make([]interest.ID, 18)
	for i := range ids {
		ids[i] = interest.ID((i*811 + 17) % cat.Len())
	}
	return ids
}

// BenchmarkAudienceKernel measures the evaluation inner loop itself — the
// cost of a conjunction the audience CACHE has never seen — in three
// regimes: legacy inline exp() (the row kernel disabled), the kernel with
// rows still unmaterialized (first touch: pays the exp() hoist once), and
// the kernel with rows warm (the steady state: contiguous multiply loops).
// exp vs rows-warm is the headline `cold_kernel_vs_exp` ratio in
// BENCH_audience.json; CI gates it at >= 2x.
func BenchmarkAudienceKernel(b *testing.B) {
	w := getBenchWorld(b)
	m := w.Model()
	ids := benchConjunction(m.Catalog())
	b.Run("exp", func(b *testing.B) {
		exp := getExpModel(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if exp.ConjunctionShare(ids) < 0 {
				b.Fatal("negative share")
			}
		}
	})
	b.Run("rows-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ResetRows()
			if m.ConjunctionShare(ids) < 0 {
				b.Fatal("negative share")
			}
		}
	})
	b.Run("rows-warm", func(b *testing.B) {
		m.WarmRows(ids...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.ConjunctionShare(ids) < 0 {
				b.Fatal("negative share")
			}
		}
	})
}

// BenchmarkAudienceUnion measures the flexible_spec OR-clause path
// (UnionConjunctionShare) — before the kernel, the only evaluation with
// per-call exp() in a triple loop, and previously unbenchmarked. Clause
// shape: four genuine 3-interest OR clauses plus three single-interest
// clauses, the mixed spec an Ads-Manager flexible_spec produces.
func BenchmarkAudienceUnion(b *testing.B) {
	w := getBenchWorld(b)
	m := w.Model()
	cat := m.Catalog()
	var clauses [][]interest.ID
	var flat []interest.ID
	for c := 0; c < 4; c++ {
		clause := make([]interest.ID, 3)
		for i := range clause {
			clause[i] = interest.ID((c*4409 + i*811 + 23) % cat.Len())
		}
		clauses = append(clauses, clause)
		flat = append(flat, clause...)
	}
	for c := 0; c < 3; c++ {
		id := interest.ID((c*7919 + 5) % cat.Len())
		clauses = append(clauses, []interest.ID{id})
		flat = append(flat, id)
	}
	b.Run("exp", func(b *testing.B) {
		exp := getExpModel(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if exp.UnionConjunctionShare(clauses) < 0 {
				b.Fatal("negative share")
			}
		}
	})
	b.Run("rows-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ResetRows()
			if m.UnionConjunctionShare(clauses) < 0 {
				b.Fatal("negative share")
			}
		}
	})
	b.Run("rows-warm", func(b *testing.B) {
		m.WarmRows(flat...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.UnionConjunctionShare(clauses) < 0 {
				b.Fatal("negative share")
			}
		}
	})
}

// BenchmarkAudienceCoalescedMiss measures single-flight miss coalescing
// under the adsapi stress shape: 8 concurrent clients all issuing the SAME
// cache-cold conjunction (engine reset per op; rows stay warm). One op is
// the whole convoy — with coalescing, one evaluation plus 7 shared waits.
func BenchmarkAudienceCoalescedMiss(b *testing.B) {
	w := getBenchWorld(b)
	eng := audience.Cached(w.Model())
	ids := benchConjunction(w.Model().Catalog())
	w.Model().WarmRows(ids...)
	const clients = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if eng.ConjunctionShare(ids) < 0 {
					b.Error("negative share")
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// BenchmarkAudienceBatch measures EvalBatch fan-out: the same cold probe
// workload evaluated sequentially versus over one worker per core.
func BenchmarkAudienceBatch(b *testing.B) {
	w := getBenchWorld(b)
	m := w.Model()
	queries := audienceProbeWorkload(m.Catalog(), 40, 25)
	for _, workers := range []int{1, 0} {
		b.Run("batch-"+workersName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := audience.Cached(m)
				out := eng.EvalBatch(queries, workers)
				if len(out) != len(queries) {
					b.Fatal("short batch")
				}
			}
		})
	}
}

// BenchmarkAudienceEndToEnd measures the cache's effect on a full consumer:
// the §4.1 collection pass (the machinery behind Figs 3–5) with the
// audience engine cold versus pre-warmed by a previous collection — the
// "second analysis on the same world" scenario every cmd tool hits.
func BenchmarkAudienceEndToEnd(b *testing.B) {
	w := getBenchWorld(b)
	users := w.PanelUsers()[:200]
	b.Run("collect-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src := core.NewEngineSource(audience.Cached(w.Model()))
			if _, err := core.Collect(users, core.Random{}, src,
				core.CollectConfig{Seed: rng.New(1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("collect-warm", func(b *testing.B) {
		eng := audience.Cached(w.Model())
		src := core.NewEngineSource(eng)
		if _, err := core.Collect(users, core.Random{}, src,
			core.CollectConfig{Seed: rng.New(1)}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Collect(users, core.Random{}, src,
				core.CollectConfig{Seed: rng.New(1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Uniqueness estimator (the columnar bootstrap kernel) ---

// BenchmarkUniquenessEstimate is the acceptance benchmark for the columnar
// bootstrap kernel: one full EstimateNP (point fit + 1,000-iteration
// bootstrap CI; the paper runs 10,000) on pre-collected bench-world
// samples, with the kernel's presorted counting quantiles versus the naive
// gather-copy-sort resample path. Both produce byte-identical estimates
// (TestColumnKernelIsByteIdentical); this bench records what the kernel
// buys in wall time — the kernel/naive ratio is the headline number in
// BENCH_uniqueness.json, CI-gated at >= 2x.
func BenchmarkUniquenessEstimate(b *testing.B) {
	w := getBenchWorld(b)
	src := core.NewModelSource(w.Model())
	collect := func(naive bool) *core.Samples {
		s, err := core.Collect(w.PanelUsers(), core.Random{}, src, core.CollectConfig{Seed: rng.New(1)})
		if err != nil {
			b.Fatal(err)
		}
		s.DisableColumnKernel = naive
		return s
	}
	run := func(b *testing.B, s *core.Samples) {
		for i := 0; i < b.N; i++ {
			if _, err := core.EstimateNP(s, 0.9, core.EstimateConfig{
				BootstrapIters: 1000,
				CILevel:        0.95,
				Rand:           rng.New(uint64(i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("kernel", func(b *testing.B) {
		s := collect(false)
		if _, err := core.EstimateNP(s, 0.9, core.EstimateConfig{}); err != nil {
			b.Fatal(err) // warm: build the column index outside the timer
		}
		b.ResetTimer()
		run(b, s)
	})
	b.Run("naive", func(b *testing.B) {
		s := collect(true)
		b.ResetTimer()
		run(b, s)
	})
}

// worldBuildSizes are the catalog sizes the world-construction benchmarks
// run at: the serving benchmark's replica world and the paper's full
// catalog (Fig 2's 98,982 interests).
var worldBuildSizes = []int{20_000, 98_982}

// worldBuildConfig is the paper's default world (seed 1, 1.5e9 users,
// activity grid 512, the 2,390-user panel) at the given catalog size.
func worldBuildConfig(size int) WorldConfig {
	cfg := DefaultWorldConfig()
	cfg.Population.CatalogSize = size
	return cfg
}

// BenchmarkBuildCatalog measures interest-catalog generation (§3, Fig 2):
// the truncated log-normal shares, which are the whole catalog (names,
// categories and the popularity order are derived from them on demand).
// Every replica and the API process pay it at start-up.
func BenchmarkBuildCatalog(b *testing.B) {
	for _, size := range worldBuildSizes {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			cfg := worldBuildConfig(size)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := cfg.BuildCatalog(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildModel measures population-model calibration over a
// prebuilt catalog: the activity grid, the span of the share table that
// brackets the catalog's shares, and the per-interest rates. On the default
// activity grid the span is read from the compiled table; grid128/20000 is
// the 20,000-interest world on the golden fixture's grid 128, whose span is
// computed (128 exp per point). No count table is built: the panel builds
// each on first touch.
func BenchmarkBuildModel(b *testing.B) {
	run := func(name string, cfg WorldConfig) {
		b.Run(name, func(b *testing.B) {
			cat, err := cfg.BuildCatalog()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := cfg.BuildModel(cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, size := range worldBuildSizes {
		run(strconv.Itoa(size), worldBuildConfig(size))
	}
	grid128 := worldBuildConfig(20_000)
	grid128.Population.ActivityGrid = 128
	run("grid128/20000", grid128)
}

// BenchmarkNewWorld measures a whole world: catalog, model and the
// 2,390-user FDVT panel, which dominates.
func BenchmarkNewWorld(b *testing.B) {
	for _, size := range worldBuildSizes {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			cfg := worldBuildConfig(size)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewWorldFromConfig(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Render measures Table 2 text rendering.
func BenchmarkTable2Render(b *testing.B) {
	w := getBenchWorld(b)
	rep, err := w.RunNanotargeting(NanotargetingOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.WriteTable2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
