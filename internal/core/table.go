package core

import (
	"context"
	"errors"
	"fmt"

	"nanotarget/internal/parallel"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

// Row is one cell of Table 1: an N_P estimate for a strategy and P.
type Row struct {
	Strategy string
	Estimate Estimate
}

// StudyResult bundles the Table 1 rows and the per-strategy samples (so
// figures 3–5 can be rendered from the same collection pass).
type StudyResult struct {
	Rows    []Row
	Samples map[string]*Samples // keyed by strategy name
}

// StudyConfig configures a full §4 uniqueness study.
type StudyConfig struct {
	// Ps are the uniqueness probabilities (paper: 0.5, 0.8, 0.9, 0.95).
	Ps []float64
	// Selectors to evaluate (paper: LeastPopular and Random).
	Selectors []Selector
	// MaxN caps combination size (default 25).
	MaxN int
	// BootstrapIters per estimate (paper: 10,000).
	BootstrapIters int
	// CILevel (paper: 0.95).
	CILevel float64
	// Rand seeds selection and bootstrap. Required.
	Rand *rng.Rand
	// Parallelism is the worker count for collection and bootstrap
	// (0 = one per core, 1 = sequential); results are identical either way.
	Parallelism int
}

// DefaultStudyConfig mirrors the paper's Table 1 setup.
func DefaultStudyConfig(r *rng.Rand) StudyConfig {
	return StudyConfig{
		Ps:             []float64{0.5, 0.8, 0.9, 0.95},
		Selectors:      []Selector{LeastPopular{}, Random{}},
		MaxN:           MaxCombinationInterests,
		BootstrapIters: 10_000,
		CILevel:        0.95,
		Rand:           r,
	}
}

// RunStudy collects samples per selector and estimates N_P for every P.
func RunStudy(users []*population.User, src AudienceSource, cfg StudyConfig) (*StudyResult, error) {
	if cfg.Rand == nil {
		return nil, errors.New("core: StudyConfig.Rand is required")
	}
	if len(cfg.Ps) == 0 || len(cfg.Selectors) == 0 {
		return nil, errors.New("core: StudyConfig needs Ps and Selectors")
	}
	res := &StudyResult{Samples: make(map[string]*Samples, len(cfg.Selectors))}
	for _, sel := range cfg.Selectors {
		samples, err := Collect(users, sel, src, CollectConfig{
			MaxN:        cfg.MaxN,
			Seed:        cfg.Rand.Derive("collect/" + sel.Name()),
			Parallelism: cfg.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("core: collecting %s samples: %w", sel.Name(), err)
		}
		res.Samples[sel.Name()] = samples
		for _, p := range cfg.Ps {
			est, err := EstimateNP(samples, p, EstimateConfig{
				BootstrapIters: cfg.BootstrapIters,
				CILevel:        cfg.CILevel,
				Rand:           cfg.Rand.Derive(fmt.Sprintf("boot/%s/%.3f", sel.Name(), p)),
				Parallelism:    cfg.Parallelism,
			})
			if err != nil {
				return nil, fmt.Errorf("core: estimating N_%.2f (%s): %w", p, sel.Name(), err)
			}
			res.Rows = append(res.Rows, Row{Strategy: sel.Name(), Estimate: est})
		}
	}
	return res, nil
}

// GroupFilter selects a demographic sub-panel for the Appendix C analysis.
// The targeting filter is the single source of truth: panel membership
// (Match) and audience narrowing (the conditional collection path) are both
// derived from Filter, so the demographic numerator and denominator of a
// group estimate can never disagree.
type GroupFilter struct {
	// Label names the group in reports ("Men", "Adolescence", "ES", ...).
	Label string
	// Filter is the demographic targeting that defines the group. Panel
	// users matching it form the sub-panel; group audience queries are
	// conditioned on it (unless GroupConfig.WorldwideAudiences).
	Filter population.DemoFilter
}

// Match decides panel membership: whether the user falls inside the group's
// demographic filter (population.DemoFilter.Matches).
func (g GroupFilter) Match(u *population.User) bool { return g.Filter.Matches(u) }

// GroupResult is one bar of Figures 8–10: N_P for one demographic group.
type GroupResult struct {
	Label    string
	Strategy string
	Users    int
	Estimate Estimate
}

// GroupConfig configures RunGroupAnalysis. Groups, Selectors and Rand are
// required.
type GroupConfig struct {
	// Groups are the demographic sub-panels (GenderGroups, AgeGroups,
	// CountryGroups, or custom filters).
	Groups []GroupFilter
	// Selectors to evaluate per group (paper: LeastPopular and Random).
	Selectors []Selector
	// P is the uniqueness probability (paper: 0.9).
	P float64
	// BootstrapIters per estimate.
	BootstrapIters int
	// Rand seeds per-group selection and bootstrap. Required.
	Rand *rng.Rand
	// Parallelism spreads the (group, selector) jobs — and each job's
	// collection and bootstrap — across this many goroutines (0 = one per
	// core, 1 = sequential) without changing the result: every job derives
	// its random streams from its own (group, selector) labels, never from
	// execution order.
	Parallelism int
	// WorldwideAudiences reproduces the legacy (pre-conditional) behaviour
	// for comparison figures: every group's audience queries stay worldwide
	// even though the panel is subset per group. The default (false) narrows
	// each group's audiences by its own DemoFilter through the source's
	// conditional path — the Appendix C semantics.
	WorldwideAudiences bool
}

// FilteredSource is an AudienceSource that can narrow the audiences it
// reports to a demographic slice. ModelSource implements it by folding the
// slice share into its conditional-audience arithmetic (served from the
// audience engine's cached demo level when one is attached).
type FilteredSource interface {
	AudienceSource
	// WithFilter returns a source whose reported audiences are conditioned
	// on f. The receiver is not modified.
	WithFilter(f population.DemoFilter) (AudienceSource, error)
}

// RunGroupAnalysis estimates N_P (single probability cfg.P, paper uses 0.9)
// for each demographic group under each selector — the Appendix C analysis
// behind Figures 8, 9 and 10.
//
// Each group's audience queries are conditioned on the group's own
// DemoFilter (through FilteredSource — for the engine-backed ModelSource
// that means the cached demo level), so a group estimate divides a
// demographic numerator by a demographic denominator. A zero-filter group
// is byte-identical to the worldwide path (DemoShare 1 leaves the
// conditional arithmetic untouched); GroupConfig.WorldwideAudiences
// reproduces the legacy worldwide-denominator behaviour for comparison.
//
// The (group, selector) jobs fan out over internal/parallel; every job
// derives its selection and bootstrap streams from its own labels, so
// results are byte-identical at any Parallelism.
func RunGroupAnalysis(users []*population.User, src AudienceSource, cfg GroupConfig) ([]GroupResult, error) {
	if cfg.Rand == nil {
		return nil, errors.New("core: rand is required")
	}
	if len(cfg.Groups) == 0 || len(cfg.Selectors) == 0 {
		return nil, errors.New("core: GroupConfig needs Groups and Selectors")
	}
	type job struct {
		g   GroupFilter
		sub []*population.User
		src AudienceSource
		sel Selector
	}
	jobs := make([]job, 0, len(cfg.Groups)*len(cfg.Selectors))
	for _, g := range cfg.Groups {
		var sub []*population.User
		for _, u := range users {
			if g.Match(u) {
				sub = append(sub, u)
			}
		}
		if len(sub) == 0 {
			return nil, fmt.Errorf("core: group %q matched no users", g.Label)
		}
		gsrc := src
		if !cfg.WorldwideAudiences && !g.Filter.IsZero() {
			fs, ok := src.(FilteredSource)
			if !ok {
				return nil, fmt.Errorf("core: group %q needs conditional audiences but the source cannot narrow; set GroupConfig.WorldwideAudiences for the legacy behaviour", g.Label)
			}
			narrowed, err := fs.WithFilter(g.Filter)
			if err != nil {
				return nil, fmt.Errorf("core: group %q: %w", g.Label, err)
			}
			gsrc = narrowed
		}
		for _, sel := range cfg.Selectors {
			jobs = append(jobs, job{g: g, sub: sub, src: gsrc, sel: sel})
		}
	}
	// rng.Derive reads the parent state without advancing it, so deriving
	// inside the workers is schedule-independent: each job's streams depend
	// only on its (group, selector) labels.
	return parallel.Map(context.Background(), len(jobs), cfg.Parallelism, func(i int) (GroupResult, error) {
		j := jobs[i]
		samples, err := Collect(j.sub, j.sel, j.src, CollectConfig{
			Seed:        cfg.Rand.Derive("group/" + j.g.Label + "/" + j.sel.Name()),
			Parallelism: cfg.Parallelism,
		})
		if err != nil {
			return GroupResult{}, err
		}
		est, err := EstimateNP(samples, cfg.P, EstimateConfig{
			BootstrapIters: cfg.BootstrapIters,
			CILevel:        0.95,
			Rand:           cfg.Rand.Derive("groupboot/" + j.g.Label + "/" + j.sel.Name()),
			Parallelism:    cfg.Parallelism,
		})
		if err != nil {
			return GroupResult{}, fmt.Errorf("core: group %q (%s): %w", j.g.Label, j.sel.Name(), err)
		}
		return GroupResult{
			Label:    j.g.Label,
			Strategy: j.sel.Name(),
			Users:    len(j.sub),
			Estimate: est,
		}, nil
	})
}

// GenderGroups returns the paper's Fig 8 grouping. Undisclosed users belong
// to neither group (the paper's panel reports them separately).
func GenderGroups() []GroupFilter {
	return []GroupFilter{
		{Label: "Men", Filter: population.DemoFilter{Genders: []population.Gender{population.GenderMale}}},
		{Label: "Women", Filter: population.DemoFilter{Genders: []population.Gender{population.GenderFemale}}},
	}
}

// AgeGroups returns the paper's Fig 9 grouping (Maturity excluded: only 19
// panel users, as in the paper). Each group's filter is the inclusive age
// range that selects exactly the Erikson band's users (AgeGroup.Bounds).
func AgeGroups() []GroupFilter {
	mk := func(label string, g population.AgeGroup) GroupFilter {
		lo, hi := g.Bounds()
		return GroupFilter{Label: label, Filter: population.DemoFilter{AgeMin: lo, AgeMax: hi}}
	}
	return []GroupFilter{
		mk("Adolescence", population.AgeAdolescence),
		mk("Early adulthood", population.AgeEarlyAdulthood),
		mk("Adulthood", population.AgeAdulthood),
	}
}

// CountryGroups returns the paper's Fig 10 grouping: panel countries with
// more than 100 users (ES, FR, MX, AR).
func CountryGroups() []GroupFilter {
	mk := func(code string) GroupFilter {
		return GroupFilter{Label: code, Filter: population.DemoFilter{Countries: []string{code}}}
	}
	return []GroupFilter{mk("AR"), mk("ES"), mk("FR"), mk("MX")}
}
