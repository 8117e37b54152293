// Package nanotarget reproduces "Unique on Facebook: Formulation and
// Evidence of (Nano)targeting Individual Users with non-PII Data"
// (González-Cabañas et al., ACM IMC 2021) as a self-contained simulation
// library.
//
// The package is the public facade over the repository's substrates
// (synthetic Facebook-scale population, interest ecosystem, Marketing-API
// simulator, FDVT panel, campaign delivery engine). A World bundles a
// calibrated population model and a research panel; its methods reproduce
// the paper's analyses:
//
//   - EstimateUniqueness — the §4 model: how many interests (least popular
//     or random) make a user unique with probability P (Table 1, Figs 3–5);
//   - RunNanotargeting — the §5 experiment: nested random-interest
//     campaigns against consenting targets, validated with the paper's
//     three success conditions (Table 2);
//   - InterestRisk / RemoveRiskyInterests — the §6 FDVT defense;
//   - EvaluatePolicies — the §8.3 platform countermeasures.
//
// Everything is deterministic under a fixed seed. See DESIGN.md for the
// modeling substitutions and EXPERIMENTS.md for paper-vs-measured results.
package nanotarget

import (
	"errors"
	"fmt"
	"io"
	"math"

	"nanotarget/internal/audience"
	"nanotarget/internal/core"
	"nanotarget/internal/fdvt"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// World is a calibrated synthetic Facebook with a research panel.
type World struct {
	model       *population.Model
	audience    *audience.Engine
	panel       *fdvt.Panel
	root        *rng.Rand
	parallelism int
}

// WorldConfig is the complete, grouped world-construction configuration:
// PopulationParams (seed, catalog, user base, panel), CacheParams (the
// audience-query cache) and the Parallelism knob. It is shared — by alias —
// with the serving tier (internal/serving builds every shard from the same
// struct) and the cmd flag surface (internal/cliflags registers flags
// straight into it). Start from DefaultWorldConfig, adjust fields, and pass
// the result to NewWorldFromConfig.
type WorldConfig = worldcfg.Config

// PopulationParams groups the synthetic-population knobs of a WorldConfig.
type PopulationParams = worldcfg.PopulationParams

// CacheParams groups the audience-cache knobs of a WorldConfig.
type CacheParams = worldcfg.CacheParams

// DefaultWorldConfig returns the paper's full-scale configuration: seed 1,
// the 98,982-interest catalog, a 1.5e9-user base (the paper's 2017
// top-50-country base; the 2020 experiment used 2.8e9), the 2,390-user panel
// with a 426-interest median profile, a 512-point activity grid, the exact
// audience cache, and one worker per core. Building it takes ≈5s; examples
// shrink CatalogSize, PanelSize and ProfileMedian together for fast demo
// worlds.
func DefaultWorldConfig() WorldConfig { return worldcfg.Default() }

// NewWorldFromConfig builds a calibrated world and panel. Identical configs
// produce bit-identical worlds, panels, studies and experiments; the
// Parallelism knob changes only wall time (every task derives its random
// stream from its stable identity, never from execution order).
func NewWorldFromConfig(cfg WorldConfig) (*World, error) {
	root := cfg.Root()
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, fmt.Errorf("nanotarget: %w", err)
	}
	model, err := cfg.BuildModel(cat, 0)
	if err != nil {
		return nil, fmt.Errorf("nanotarget: %w", err)
	}

	fcfg := fdvt.DefaultPanelConfig(model)
	fcfg.Size = cfg.Population.PanelSize
	fcfg.ProfileMedian = cfg.Population.ProfileMedian
	// Profiles cannot exceed the catalog; keep the clamp meaningful for
	// small demo catalogs.
	if fcfg.ProfileMax > float64(cat.Len()) {
		fcfg.ProfileMax = float64(cat.Len())
	}
	panel, err := fdvt.BuildPanel(fcfg, root.Derive("panel"))
	if err != nil {
		return nil, fmt.Errorf("nanotarget: building panel: %w", err)
	}
	return &World{
		model:       model,
		audience:    cfg.NewEngine(model),
		panel:       panel,
		root:        root,
		parallelism: cfg.Parallelism,
	}, nil
}

// Parallelism returns the world's worker count knob (0 = one per core).
func (w *World) Parallelism() int { return w.parallelism }

// workers resolves a per-call override against the world default: 0 keeps
// the world's knob, anything else (including 1 = sequential) wins.
func (w *World) workers(override int) int {
	if override != 0 {
		return override
	}
	return w.parallelism
}

// PanelSize returns the number of panel users.
func (w *World) PanelSize() int { return len(w.panel.Users) }

// Population returns the modeled user-base size.
func (w *World) Population() int64 { return w.model.Population() }

// CatalogSize returns the number of interests in the ecosystem.
func (w *World) CatalogSize() int { return w.model.Catalog().Len() }

// DescribePanel renders the §3-style dataset summary.
func (w *World) DescribePanel() string { return w.panel.Describe().String() }

// Model exposes the underlying population model for advanced, in-module use
// (cmd tools and benchmarks); library consumers should prefer the World
// methods.
func (w *World) Model() *population.Model { return w.model }

// Audience exposes the shared audience-query engine every study and
// experiment the world runs evaluates through.
func (w *World) Audience() *audience.Engine { return w.audience }

// AudienceCacheStats snapshots the per-level audience cache counters (zero
// value when WorldConfig.Cache.Disabled).
func (w *World) AudienceCacheStats() audience.Stats { return w.audience.Stats() }

// AudienceCacheMode reports the cache contract the world was built with.
func (w *World) AudienceCacheMode() audience.Mode { return w.audience.Mode() }

// WarmAudienceRows materializes the full inclusion-row table up front
// (population.Model.WarmAllRows) so no audience evaluation pays first-touch
// exp() cost — the serving-deployment trade documented in
// internal/population/rows.go: catalog × grid × 8 bytes of memory (~400 MiB
// at the full paper scale, ~80 MiB for a 20k-interest catalog at the default
// 512-point grid).
func (w *World) WarmAudienceRows() { w.model.WarmAllRows() }

// PanelUsers exposes the panel for advanced, in-module use.
func (w *World) PanelUsers() []*population.User { return w.panel.Users }

// InterestInfo describes one catalog interest.
type InterestInfo struct {
	Name     string
	Category string
	// AudienceSize is the worldwide audience (users holding the interest).
	AudienceSize int64
}

// SearchInterests finds interests by (case-insensitive) name substring.
func (w *World) SearchInterests(query string, limit int) []InterestInfo {
	var out []InterestInfo
	for _, in := range w.model.Catalog().Search(query, limit) {
		out = append(out, InterestInfo{
			Name:         in.Name,
			Category:     in.Category,
			AudienceSize: w.model.Catalog().AudienceSize(in.ID, w.model.Population()),
		})
	}
	return out
}

// PotentialReach returns the floored Potential Reach of an interest
// conjunction given by display names, like an Ads-Manager query.
func (w *World) PotentialReach(interestNames []string) (int64, error) {
	ids, err := w.resolve(interestNames)
	if err != nil {
		return 0, err
	}
	src := core.NewEngineSource(w.audience)
	return src.PotentialReach(ids)
}

// PotentialReachBatch evaluates many conjunctions (each a list of interest
// display names) in one call, fanning out over the world's parallelism knob
// and sharing the audience cache. Results are in input order.
func (w *World) PotentialReachBatch(batches [][]string) ([]int64, error) {
	src := core.NewEngineSource(w.audience)
	specs := make([][]interest.ID, len(batches))
	for i, names := range batches {
		ids, err := w.resolve(names)
		if err != nil {
			return nil, err
		}
		specs[i] = ids
	}
	out := make([]int64, len(specs))
	for i, p := range w.audience.EvalBatch(specs, w.parallelism) {
		out[i] = src.ClampConditional(p)
	}
	return out, nil
}

// RandomInterestsOf simulates attacker knowledge: n interests of panel user
// `panelIndex`, drawn uniformly from their profile. Deterministic per
// (world seed, panelIndex, n, draw).
func (w *World) RandomInterestsOf(panelIndex, n int, draw uint64) ([]string, error) {
	u, err := w.panelUser(panelIndex)
	if err != nil {
		return nil, err
	}
	if n <= 0 || n > len(u.Interests) {
		return nil, fmt.Errorf("nanotarget: user %d has %d interests; cannot draw %d",
			panelIndex, len(u.Interests), n)
	}
	r := w.root.Derive(fmt.Sprintf("known/%d/%d/%d", panelIndex, n, draw))
	ids := core.Random{}.Select(u, w.model.Catalog(), n, r)
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = w.model.Catalog().MustGet(id).Name
	}
	return names, nil
}

func (w *World) panelUser(i int) (*population.User, error) {
	if i < 0 || i >= len(w.panel.Users) {
		return nil, fmt.Errorf("nanotarget: panel index %d out of range [0,%d)", i, len(w.panel.Users))
	}
	return w.panel.Users[i], nil
}

func (w *World) resolve(names []string) ([]interest.ID, error) {
	ids := make([]interest.ID, 0, len(names))
	for _, n := range names {
		in, ok := w.model.Catalog().ByName(n)
		if !ok {
			return nil, fmt.Errorf("nanotarget: unknown interest %q", n)
		}
		ids = append(ids, in.ID)
	}
	return ids, nil
}

// --- Uniqueness study (§4) ---

// UniquenessOptions configures EstimateUniqueness.
type UniquenessOptions struct {
	// Ps are the uniqueness probabilities (default: 0.5, 0.8, 0.9, 0.95).
	Ps []float64
	// BootstrapIters per estimate (default 1000; the paper used 10,000 —
	// pass that for publication-grade CIs).
	BootstrapIters int
	// Strategies to evaluate: "LP", "R" (default both) and optionally "MP".
	Strategies []string
	// Parallelism overrides the world's worker knob for this study
	// (0 = world default, 1 = sequential). The estimates are identical for
	// any value; only wall time changes.
	Parallelism int
}

// UniquenessEstimate is one row of Table 1.
type UniquenessEstimate struct {
	// Strategy is "LP" (least popular) or "R" (random).
	Strategy string
	// P is the uniqueness probability.
	P float64
	// NP is the estimated number of interests for uniqueness.
	NP float64
	// CILo and CIHi bound the 95% bootstrap confidence interval.
	CILo, CIHi float64
	// R2 is the goodness of the log–log fit.
	R2 float64
}

// VASPoint is one point of a VAS(Q) curve (Figs 3–5).
type VASPoint struct {
	// N is the number of interests in the conjunction.
	N int
	// AudienceSize is AS(Q,N), the per-N audience-size quantile.
	AudienceSize float64
}

// UniquenessStudy holds the estimates and the underlying curves.
type UniquenessStudy struct {
	rows    []UniquenessEstimate
	samples map[string]*core.Samples
}

// Estimates returns the Table 1 rows.
func (s *UniquenessStudy) Estimates() []UniquenessEstimate {
	out := make([]UniquenessEstimate, len(s.rows))
	copy(out, s.rows)
	return out
}

// Estimate returns the row for a strategy and P.
func (s *UniquenessStudy) Estimate(strategy string, p float64) (UniquenessEstimate, error) {
	for _, r := range s.rows {
		if r.Strategy == strategy && math.Abs(r.P-p) < 1e-9 {
			return r, nil
		}
	}
	return UniquenessEstimate{}, fmt.Errorf("nanotarget: no estimate for %s P=%v", strategy, p)
}

// VAS returns the VAS(Q) curve for a strategy at quantile q (q = P).
func (s *UniquenessStudy) VAS(strategy string, q float64) ([]VASPoint, error) {
	samples, ok := s.samples[strategy]
	if !ok {
		return nil, fmt.Errorf("nanotarget: strategy %q not in study", strategy)
	}
	vas := samples.VAS(q)
	out := make([]VASPoint, 0, len(vas))
	for i, v := range vas {
		if math.IsNaN(v) {
			break
		}
		out = append(out, VASPoint{N: i + 1, AudienceSize: v})
	}
	return out, nil
}

// EstimateUniqueness runs the §4 study on the world's panel.
func (w *World) EstimateUniqueness(opts UniquenessOptions) (*UniquenessStudy, error) {
	if len(opts.Ps) == 0 {
		opts.Ps = []float64{0.5, 0.8, 0.9, 0.95}
	}
	if opts.BootstrapIters <= 0 {
		opts.BootstrapIters = 1000
	}
	if len(opts.Strategies) == 0 {
		opts.Strategies = []string{"LP", "R"}
	}
	var selectors []core.Selector
	for _, s := range opts.Strategies {
		switch s {
		case "LP":
			selectors = append(selectors, core.LeastPopular{})
		case "R":
			selectors = append(selectors, core.Random{})
		case "MP":
			selectors = append(selectors, core.MostPopular{})
		default:
			return nil, fmt.Errorf("nanotarget: unknown strategy %q", s)
		}
	}
	cfg := core.StudyConfig{
		Ps:             opts.Ps,
		Selectors:      selectors,
		MaxN:           core.MaxCombinationInterests,
		BootstrapIters: opts.BootstrapIters,
		CILevel:        0.95,
		Rand:           w.root.Derive("uniqueness"),
		Parallelism:    w.workers(opts.Parallelism),
	}
	res, err := core.RunStudy(w.panel.Users, core.NewEngineSource(w.audience), cfg)
	if err != nil {
		return nil, err
	}
	study := &UniquenessStudy{samples: res.Samples}
	for _, row := range res.Rows {
		e := row.Estimate
		study.rows = append(study.rows, UniquenessEstimate{
			Strategy: row.Strategy,
			P:        e.P,
			NP:       e.NP,
			CILo:     e.CI.Lo,
			CIHi:     e.CI.Hi,
			R2:       e.R2,
		})
	}
	return study, nil
}

// GroupUniqueness runs the Appendix C demographic analysis at probability p
// (the paper uses 0.9) and returns one estimate per (group, strategy).
type GroupEstimate struct {
	Group    string
	Strategy string
	Users    int
	Estimate UniquenessEstimate
}

// Grouping selects the demographic dimension of the Appendix C analysis.
type Grouping int

// Supported groupings (Figs 8, 9 and 10).
const (
	ByGender Grouping = iota
	ByAge
	ByCountry
)

// GroupUniquenessOptions configures GroupUniquenessWithOptions.
type GroupUniquenessOptions struct {
	// P is the uniqueness probability (default 0.9, as in the paper).
	P float64
	// BootstrapIters per estimate (default 500).
	BootstrapIters int
	// WorldwideAudiences reproduces the legacy behaviour for comparison
	// figures: the panel is still subset per group, but every audience query
	// stays worldwide. The default (false) conditions each group's audiences
	// on the group's own demographic filter through the audience engine's
	// cached demo level — the Appendix C semantics.
	WorldwideAudiences bool
	// Parallelism overrides the world's worker knob for this analysis
	// (0 = world default, 1 = sequential); results are byte-identical for
	// any value.
	Parallelism int
}

// GroupUniqueness estimates N_P per demographic group with the conditional
// (group-filtered) audience semantics and default options.
func (w *World) GroupUniqueness(g Grouping, p float64, bootstrapIters int) ([]GroupEstimate, error) {
	return w.GroupUniquenessWithOptions(g, GroupUniquenessOptions{P: p, BootstrapIters: bootstrapIters})
}

// GroupUniquenessWithOptions estimates N_P per demographic group.
func (w *World) GroupUniquenessWithOptions(g Grouping, opts GroupUniquenessOptions) ([]GroupEstimate, error) {
	var groups []core.GroupFilter
	switch g {
	case ByGender:
		groups = core.GenderGroups()
	case ByAge:
		groups = core.AgeGroups()
	case ByCountry:
		groups = core.CountryGroups()
	default:
		return nil, errors.New("nanotarget: unknown grouping")
	}
	if opts.P <= 0 || opts.P >= 1 {
		opts.P = 0.9
	}
	if opts.BootstrapIters <= 0 {
		opts.BootstrapIters = 500
	}
	res, err := core.RunGroupAnalysis(w.panel.Users, core.NewEngineSource(w.audience), core.GroupConfig{
		Groups:             groups,
		Selectors:          []core.Selector{core.LeastPopular{}, core.Random{}},
		P:                  opts.P,
		BootstrapIters:     opts.BootstrapIters,
		Rand:               w.root.Derive("groups"),
		Parallelism:        w.workers(opts.Parallelism),
		WorldwideAudiences: opts.WorldwideAudiences,
	})
	if err != nil {
		return nil, err
	}
	out := make([]GroupEstimate, 0, len(res))
	for _, r := range res {
		out = append(out, GroupEstimate{
			Group:    r.Label,
			Strategy: r.Strategy,
			Users:    r.Users,
			Estimate: UniquenessEstimate{
				Strategy: r.Strategy,
				P:        r.Estimate.P,
				NP:       r.Estimate.NP,
				CILo:     r.Estimate.CI.Lo,
				CIHi:     r.Estimate.CI.Hi,
				R2:       r.Estimate.R2,
			},
		})
	}
	return out, nil
}

// DemographicBoost quantifies the paper's §9 future-work conjecture: how
// many fewer random interests does an attacker need when they also target
// the victim's known demographics (country and/or gender and/or age)?
type DemographicBoost struct {
	// P is the uniqueness probability evaluated.
	P float64
	// InterestOnly is N_P from interests alone.
	InterestOnly float64
	// WithDemographics is N_P when demographics narrow the base first.
	WithDemographics float64
	// Saved is the attacker's knowledge discount in interests.
	Saved float64
}

// DemographicKnowledgeOptions selects what the attacker knows.
type DemographicKnowledgeOptions struct {
	Country  bool
	Gender   bool
	AgeYears bool
	// AgeSlack widens the age targeting (0 = exact year).
	AgeSlack int
	// P is the uniqueness probability (default 0.9).
	P float64
	// BootstrapIters per estimate (default 300).
	BootstrapIters int
}

// EstimateDemographicBoost runs the §9 future-work study.
func (w *World) EstimateDemographicBoost(opts DemographicKnowledgeOptions) (DemographicBoost, error) {
	if opts.P <= 0 || opts.P >= 1 {
		opts.P = 0.9
	}
	if opts.BootstrapIters <= 0 {
		opts.BootstrapIters = 300
	}
	know := core.DemographicKnowledge{
		Country:  opts.Country,
		Gender:   opts.Gender,
		AgeYears: opts.AgeYears,
		AgeSlack: opts.AgeSlack,
	}
	study, err := core.RunDemographicStudy(
		w.panel.Users,
		core.NewEngineSource(w.audience),
		know.Fn(),
		core.DemoStudyConfig{
			P:              opts.P,
			BootstrapIters: opts.BootstrapIters,
			Seed:           w.root.Derive("demoboost"),
			Parallelism:    w.parallelism,
		},
	)
	if err != nil {
		return DemographicBoost{}, err
	}
	return DemographicBoost{
		P:                study.P,
		InterestOnly:     study.InterestOnly.NP,
		WithDemographics: study.WithDemographics.NP,
		Saved:            study.Saved(),
	}, nil
}

// FloorUniqueness is one row of the floor-countermeasure estimator replay:
// the §4 random-interest uniqueness estimate with the platform's
// Potential-Reach floor raised to a countermeasure limit.
type FloorUniqueness struct {
	// Floor is the minimum Potential Reach the platform reports.
	Floor int64
	// Estimate is N_P under that floor (Strategy "R").
	Estimate UniquenessEstimate
}

// UniquenessUnderFloors replays the §4 estimator under each reach-floor
// countermeasure (§8.3 discusses 20 in the 2017 dataset, 100 with the
// workaround, 1000 today): every floor re-collects the random-selection
// samples with the raised floor and re-runs the full bootstrap estimator —
// the policy-evaluation workload whose cost the columnar bootstrap kernel
// amortizes. p defaults to 0.9 and bootstrapIters to 500 when non-positive.
// Results are deterministic per (world seed, floor).
func (w *World) UniquenessUnderFloors(floors []int64, p float64, bootstrapIters int) ([]FloorUniqueness, error) {
	if len(floors) == 0 {
		floors = []int64{20, 100, 1000}
	}
	if p <= 0 || p >= 1 {
		p = 0.9
	}
	if bootstrapIters <= 0 {
		bootstrapIters = 500
	}
	out := make([]FloorUniqueness, 0, len(floors))
	for _, floor := range floors {
		if floor <= 0 {
			return nil, fmt.Errorf("nanotarget: reach floor %d must be positive", floor)
		}
		src := core.NewEngineSource(w.audience)
		src.MinReach = floor
		seed := w.root.Derive(fmt.Sprintf("floorpolicy/%d", floor))
		samples, err := core.Collect(w.panel.Users, core.Random{}, src, core.CollectConfig{
			Seed:        seed.Derive("collect"),
			Parallelism: w.parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("nanotarget: floor %d collection: %w", floor, err)
		}
		est, err := core.EstimateNP(samples, p, core.EstimateConfig{
			BootstrapIters: bootstrapIters,
			CILevel:        0.95,
			Rand:           seed.Derive("boot"),
			Parallelism:    w.parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("nanotarget: floor %d estimate: %w", floor, err)
		}
		out = append(out, FloorUniqueness{
			Floor: floor,
			Estimate: UniquenessEstimate{
				Strategy: est.Strategy,
				P:        est.P,
				NP:       est.NP,
				CILo:     est.CI.Lo,
				CIHi:     est.CI.Hi,
				R2:       est.R2,
			},
		})
	}
	return out, nil
}

// WriteTable1 renders the study in the paper's Table 1 layout.
func (s *UniquenessStudy) WriteTable1(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-8s %-6s %8s %18s %6s\n", "strategy", "P", "N_P", "95% CI", "R2"); err != nil {
		return err
	}
	for _, r := range s.rows {
		if _, err := fmt.Fprintf(w, "%-8s %-6.2f %8.2f (%7.2f, %7.2f) %6.3f\n",
			r.Strategy, r.P, r.NP, r.CILo, r.CIHi, r.R2); err != nil {
			return err
		}
	}
	return nil
}
