package campaign

import (
	"errors"
	"fmt"
	"math"
	"time"

	"nanotarget/internal/audience"
	"nanotarget/internal/dist"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/weblog"
)

// DeliveryConfig parametrizes the delivery engine. Defaults are calibrated
// so the engine reproduces the magnitudes of Table 2 (impressions, reach,
// spend, TFI) given the paper's budgets and schedule.
type DeliveryConfig struct {
	// OpportunityRate is each audience member's ad-slot rate per active
	// hour (saturation frequency ≈ OpportunityRate × active hours).
	OpportunityRate float64
	// PacingFactor is the fraction of the nominal daily budget the pacer
	// spends per 24 active-equivalent hours. The paper promised 70 €/day
	// for a week but observed ≈10 €/day of effective spend.
	PacingFactor float64
	// CPMKneeAudience is the audience size at which CPM peaks.
	CPMKneeAudience float64
	// CPMKneeCents is the peak CPM (euro cents per 1000 impressions).
	CPMKneeCents float64
	// CPMRiseExp is the CPM exponent below the knee (gentle rise).
	CPMRiseExp float64
	// CPMFallExp is the CPM decay exponent above the knee.
	CPMFallExp float64
	// CPMNoiseSigma is log-normal noise applied to the drawn CPM.
	CPMNoiseSigma float64
	// BudgetLimitedFreq is mean impressions per reached user when delivery
	// is budget-limited.
	BudgetLimitedFreq float64
	// BackgroundCTR is the click-through rate of non-target users.
	BackgroundCTR float64
	// TargetMaxDevices bounds how many distinct devices (IPs) the
	// instructed target clicks from.
	TargetMaxDevices int
	// NanoAudienceThreshold and NanoDamping model the platform's reluctance
	// to re-serve an ad to a tiny audience: below the threshold, per-user
	// delivery rates are multiplied by the damping factor. The paper's
	// successful campaigns delivered only 1–5 impressions over 33 hours.
	NanoAudienceThreshold int64
	NanoDamping           float64
}

// DefaultDeliveryConfig returns the Table 2-calibrated engine parameters.
func DefaultDeliveryConfig() DeliveryConfig {
	return DeliveryConfig{
		OpportunityRate:       0.2,
		PacingFactor:          0.30,
		CPMKneeAudience:       200,
		CPMKneeCents:          1800,
		CPMRiseExp:            0.12,
		CPMFallExp:            0.75,
		CPMNoiseSigma:         0.25,
		BudgetLimitedFreq:     4.2,
		BackgroundCTR:         0.0006,
		TargetMaxDevices:      3,
		NanoAudienceThreshold: 50,
		NanoDamping:           0.3,
	}
}

// Engine runs campaigns against a world model, logging clicks to a weblog.
// Audience realization routes through the shared audience engine, so
// repeated campaigns over overlapping interest sets (the experiment's
// nested 22 ⊃ 20 ⊃ 18 ⊃ ... subsets) reuse cached conjunction shares.
type Engine struct {
	cfg    DeliveryConfig
	aud    *audience.Engine
	clicks *weblog.Logger
}

// NewEngineWithAudience validates dependencies; the audience engine supplies
// (and may cache) every audience-size evaluation.
func NewEngineWithAudience(cfg DeliveryConfig, aud *audience.Engine, clicks *weblog.Logger) (*Engine, error) {
	if aud == nil {
		return nil, errors.New("campaign: audience engine is required")
	}
	if clicks == nil {
		return nil, errors.New("campaign: click logger is required")
	}
	if cfg.OpportunityRate <= 0 || cfg.PacingFactor <= 0 {
		return nil, errors.New("campaign: OpportunityRate and PacingFactor must be positive")
	}
	if cfg.TargetMaxDevices <= 0 {
		cfg.TargetMaxDevices = 1
	}
	return &Engine{cfg: cfg, aud: aud, clicks: clicks}, nil
}

// cpmCents draws the market CPM for an audience of size a.
func (e *Engine) cpmCents(a float64, r *rng.Rand) float64 {
	if a < 1 {
		a = 1
	}
	knee := e.cfg.CPMKneeAudience
	var cpm float64
	if a <= knee {
		cpm = e.cfg.CPMKneeCents * math.Pow(a/knee, e.cfg.CPMRiseExp)
	} else {
		cpm = e.cfg.CPMKneeCents * math.Pow(a/knee, -e.cfg.CPMFallExp)
	}
	noise := math.Exp(e.cfg.CPMNoiseSigma * r.NormFloat64())
	cpm *= noise
	if cpm < 1 {
		cpm = 1
	}
	return cpm
}

// Run simulates one campaign targeting `target`. The target's profile must
// contain every interest in the spec (the attack constructs the audience
// from the victim's own interests).
func (e *Engine) Run(spec Spec, target *population.User, r *rng.Rand) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if target == nil {
		return Result{}, errors.New("campaign: target user is required")
	}
	for _, id := range spec.Interests {
		if !target.HasInterest(id) {
			return Result{}, fmt.Errorf("campaign: target %d lacks interest %d; the audience would exclude them", target.ID, id)
		}
	}

	res := Result{
		CreativeID:   spec.Creative.ID,
		NumInterests: len(spec.Interests),
	}

	// 1. Realize the audience: the target plus a Binomial draw of
	// co-matching users.
	res.AudienceSize = e.aud.RealizeAudience(spec.Filter, spec.Interests, r.Derive("audience"))
	audience := float64(res.AudienceSize)

	// 2. Delivery capacity over the active windows.
	activeHours := spec.Schedule.TotalActive().Hours()
	saturationFreq := e.cfg.OpportunityRate * activeHours // impressions/user at saturation
	oppImpressions := audience * saturationFreq

	cpm := e.cpmCents(audience, r.Derive("cpm"))
	budgetCents := float64(spec.DailyBudgetCents) * e.cfg.PacingFactor * activeHours / 24
	budgetImpressions := budgetCents / cpm * 1000

	budgetLimited := budgetImpressions < oppImpressions
	pressure := 1.0
	if budgetLimited {
		pressure = budgetImpressions / oppImpressions
	}

	// Tiny audiences are served reluctantly (frequency damping).
	damping := 1.0
	if e.cfg.NanoDamping > 0 && res.AudienceSize <= e.cfg.NanoAudienceThreshold {
		damping = e.cfg.NanoDamping
	}

	// 3. The target individually: Poisson impressions thinned by budget
	// pressure; the first arrival gives TFI in active time.
	targetRand := r.Derive("target")
	targetRate := saturationFreq * pressure * damping // expected impressions over the campaign
	res.TargetImpressions = int64(dist.Poisson(targetRand, targetRate))
	if res.TargetImpressions > 0 {
		res.Seen = true
		// First arrival of a Poisson process conditioned on >=1 event in
		// [0, H]: rejection-sample an Exponential truncated to the window.
		hourlyRate := targetRate / activeHours
		var firstHours float64
		for {
			firstHours = targetRand.ExpFloat64() / hourlyRate
			if firstHours <= activeHours {
				break
			}
		}
		res.TFI = time.Duration(firstHours * float64(time.Hour))
	}

	// 4. The rest of the audience in aggregate.
	others := res.AudienceSize - 1
	var otherImpressions, otherReached int64
	if others > 0 {
		if budgetLimited {
			otherImpressions = int64(budgetImpressions + 0.5)
			freq := e.cfg.BudgetLimitedFreq * (0.85 + 0.3*r.Float64())
			otherReached = int64(float64(otherImpressions)/freq + 0.5)
			if otherReached > others {
				otherReached = others
			}
			if otherImpressions > 0 && otherReached == 0 {
				otherReached = 1
			}
		} else {
			otherImpressions = int64(dist.Poisson(r.Derive("imps"), float64(others)*saturationFreq*damping))
			pReach := 1 - math.Exp(-saturationFreq*damping)
			otherReached = dist.Binomial(r.Derive("reach"), others, pReach)
		}
	}
	res.Impressions = res.TargetImpressions + otherImpressions
	res.Reached = otherReached
	if res.Seen {
		res.Reached++
	}

	// 5. Billing: impressions at the drawn CPM, rounded to whole cents —
	// tiny campaigns round to zero, reproducing the "Free" rows of Table 2.
	res.CostCents = int64(float64(res.Impressions)*cpm/1000 + 0.5)
	maxBudget := int64(budgetCents + 0.5)
	if res.CostCents > maxBudget {
		res.CostCents = maxBudget
	}

	// 6. Clicks. The instructed target clicks every impression, from up to
	// TargetMaxDevices distinct devices; background users click at the
	// organic CTR, each from a distinct synthetic device.
	clickRand := r.Derive("clicks")
	devices := 1 + clickRand.Intn(e.cfg.TargetMaxDevices)
	if res.TargetImpressions < int64(devices) {
		devices = int(res.TargetImpressions)
	}
	for i := int64(0); i < res.TargetImpressions; i++ {
		dev := 0
		if devices > 0 {
			dev = int(i) % devices
		}
		e.clicks.LogClick(spec.Creative.ID, fmt.Sprintf("target-%d-dev-%d", target.ID, dev))
		res.Clicks++
	}
	bg := dist.Binomial(clickRand, otherImpressions, e.cfg.BackgroundCTR)
	for i := int64(0); i < bg; i++ {
		e.clicks.LogClick(spec.Creative.ID, fmt.Sprintf("bg-%s-%d", spec.Creative.ID, i))
		res.Clicks++
	}
	res.UniqueClickIPs = e.clicks.UniqueIPs(spec.Creative.ID)

	// 7. Disclosure validation.
	if res.Seen {
		disc, err := WhyAmISeeingThis(spec, e.aud.Catalog())
		if err != nil {
			return Result{}, err
		}
		res.DisclosureOK = disc.MatchesSpec(spec, e.aud.Catalog())
	}

	res.Nanotargeted = res.Succeeded()
	return res, nil
}
