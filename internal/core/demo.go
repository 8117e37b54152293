package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nanotarget/internal/parallel"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

// KnowledgeFn maps a victim to the demographic targeting an attacker can set
// up from what they know about them (country, gender, age band, ...). It is
// the §9 future-work scenario: "the combination of socio-demographic
// parameters with interests may imply that the number of non-PII items
// required ... is lower than what we have reported".
type KnowledgeFn func(u *population.User) population.DemoFilter

// DemographicKnowledge builds a KnowledgeFn from which attributes the
// attacker knows. Unknown or undisclosed attributes contribute no filter.
type DemographicKnowledge struct {
	// Country narrows to the victim's country of residence.
	Country bool
	// Gender narrows to the victim's declared gender.
	Gender bool
	// AgeYears narrows to ±AgeSlack years around the victim's age;
	// negative means age is not used.
	AgeYears bool
	// AgeSlack widens the age filter (0 = exact year, as FB allows).
	AgeSlack int
}

// Fn returns the filter builder.
func (k DemographicKnowledge) Fn() KnowledgeFn {
	return func(u *population.User) population.DemoFilter {
		var f population.DemoFilter
		if k.Country && u.Country != "" {
			f.Countries = []string{u.Country}
		}
		if k.Gender && u.Gender != population.GenderUndisclosed {
			f.Genders = []population.Gender{u.Gender}
		}
		if k.AgeYears && u.Age > 0 {
			f.AgeMin = u.Age - k.AgeSlack
			f.AgeMax = u.Age + k.AgeSlack
			if f.AgeMin < 13 {
				f.AgeMin = 13
			}
		}
		return f
	}
}

// CollectWithDemographics runs the §4 collection with per-victim demographic
// narrowing: the audience of every prefix is evaluated inside the
// demographic slice the attacker can target. The audience oracle is
// model-backed (the per-user filter cannot be expressed through the generic
// AudienceSource interface). When the source carries an audience engine,
// both factors route through it — the filter share through the cached demo
// level (one entry per distinct victim filter) and the prefix shares through
// the ordered-prefix level — with bit-identical results, so the Appendix C
// demographic-boost scans share the cache every other subsystem warms.
func CollectWithDemographics(users []*population.User, sel Selector, ms *ModelSource, know KnowledgeFn, cfg CollectConfig) (*Samples, error) {
	if len(users) == 0 {
		return nil, errors.New("core: no panel users")
	}
	if sel == nil || ms == nil || ms.Model == nil {
		return nil, errors.New("core: selector and model source are required")
	}
	if know == nil {
		know = func(*population.User) population.DemoFilter { return population.DemoFilter{} }
	}
	maxN := cfg.MaxN
	if maxN <= 0 || maxN > MaxCombinationInterests {
		maxN = MaxCombinationInterests
	}
	seed := cfg.Seed
	if seed == nil {
		return nil, errors.New("core: CollectConfig.Seed is required")
	}
	m := ms.Model
	s := &Samples{
		AS:         make([][]float64, len(users)),
		MaxN:       maxN,
		FloorValue: float64(ms.Floor()),
		Strategy:   sel.Name() + "+demo",
	}
	err := parallel.ForEach(context.Background(), len(users), cfg.Parallelism, func(ui int) error {
		u := users[ui]
		ids := sel.Select(u, m.Catalog(), maxN, selectorRand(seed, sel, u))
		row := make([]float64, maxN)
		for i := range row {
			row[i] = math.NaN()
		}
		filter := know(u)
		base := float64(m.Population())*ms.demoShare(filter) - 1
		if base < 0 {
			base = 0
		}
		if ms.Audience != nil {
			buf := sharePool.Get().(*[]float64)
			shares := ms.Audience.AppendPrefixShares((*buf)[:0], ids)
			for i, p := range shares {
				reach := int64(math.Round(1 + base*p))
				if reach < ms.Floor() {
					reach = ms.Floor()
				}
				row[i] = float64(reach)
			}
			*buf = shares[:0]
			sharePool.Put(buf)
		} else {
			q := m.NewQuery()
			for i, id := range ids {
				q.And(id)
				reach := int64(math.Round(1 + base*q.Share()))
				if reach < ms.Floor() {
					reach = ms.Floor()
				}
				row[i] = float64(reach)
			}
		}
		s.AS[ui] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// DemographicStudy compares interest-only uniqueness against
// demographics-augmented uniqueness at one probability, quantifying the §9
// conjecture.
type DemographicStudy struct {
	P float64
	// InterestOnly is N_P from interests alone (the paper's Table 1 cell).
	InterestOnly Estimate
	// WithDemographics is N_P when the attacker also targets the victim's
	// known demographics.
	WithDemographics Estimate
}

// Saved returns how many fewer interests the demographic knowledge buys.
func (d DemographicStudy) Saved() float64 {
	return d.InterestOnly.NP - d.WithDemographics.NP
}

// DemoStudyConfig configures RunDemographicStudy. Seed is required.
type DemoStudyConfig struct {
	// P is the uniqueness probability (paper baseline: 0.9).
	P float64
	// BootstrapIters per estimate.
	BootstrapIters int
	// Seed drives the shared selection stream and both bootstraps. Required.
	Seed *rng.Rand
	// Parallelism spreads collection and bootstrap over that many
	// goroutines (0 = one per core, 1 = sequential) without changing the
	// result.
	Parallelism int
}

// RunDemographicStudy estimates both variants with a shared selection seed
// so the comparison isolates the demographic narrowing.
func RunDemographicStudy(users []*population.User, ms *ModelSource, know KnowledgeFn, cfg DemoStudyConfig) (DemographicStudy, error) {
	if cfg.Seed == nil {
		return DemographicStudy{}, errors.New("core: seed is required")
	}
	seed, p, boot, workers := cfg.Seed, cfg.P, cfg.BootstrapIters, cfg.Parallelism
	baseSamples, err := Collect(users, Random{}, ms, CollectConfig{Seed: seed.Derive("plain"), Parallelism: workers})
	if err != nil {
		return DemographicStudy{}, fmt.Errorf("core: interest-only collection: %w", err)
	}
	baseEst, err := EstimateNP(baseSamples, p, EstimateConfig{
		BootstrapIters: boot, CILevel: 0.95, Rand: seed.Derive("plain-boot"), Parallelism: workers,
	})
	if err != nil {
		return DemographicStudy{}, err
	}
	demoSamples, err := CollectWithDemographics(users, Random{}, ms, know, CollectConfig{Seed: seed.Derive("plain"), Parallelism: workers})
	if err != nil {
		return DemographicStudy{}, fmt.Errorf("core: demographic collection: %w", err)
	}
	demoEst, err := EstimateNP(demoSamples, p, EstimateConfig{
		BootstrapIters: boot, CILevel: 0.95, Rand: seed.Derive("demo-boot"), Parallelism: workers,
	})
	if err != nil {
		return DemographicStudy{}, err
	}
	return DemographicStudy{P: p, InterestOnly: baseEst, WithDemographics: demoEst}, nil
}
