package campaign

import (
	"testing"
	"time"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/simclock"
	"nanotarget/internal/weblog"
)

func testWorld(t testing.TB) (*population.Model, *population.User) {
	t.Helper()
	icfg := interest.DefaultConfig()
	icfg.Size = 3000
	cat, err := interest.Generate(icfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := population.DefaultConfig(cat)
	pcfg.ActivityGridSize = 160
	pcfg.Population = 2_800_000_000 // the 2020 experiment ran worldwide
	m, err := population.NewModel(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	target := m.PlantUser(7, "ES", population.GenderMale, 35, 400, rng.New(2))
	return m, target
}

func testEngine(t testing.TB, m *population.Model) (*Engine, *weblog.Logger) {
	t.Helper()
	clock := simclock.NewSim(time.Date(2020, 10, 29, 19, 0, 0, 0, simclock.CET))
	logger, err := weblog.NewLogger([]byte("0123456789abcdef0123456789abcdef"), clock)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWithAudience(DefaultDeliveryConfig(), audience.Disabled(m), logger)
	if err != nil {
		t.Fatal(err)
	}
	return eng, logger
}

func specFor(target *population.User, n int, id string) Spec {
	return Spec{
		Name:             "test " + id,
		Interests:        append([]interest.ID(nil), target.Interests[:n]...),
		DailyBudgetCents: 7000,
		Schedule:         simclock.PaperSchedule(),
		Creative:         Creative{ID: id, Title: "FDVT", Body: "Try the FDVT extension"},
	}
}

func TestSpecValidate(t *testing.T) {
	_, target := testWorld(t)
	ok := specFor(target, 3, "ok")
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Interests = nil
	if err := bad.Validate(); err == nil {
		t.Error("no interests accepted")
	}
	bad = ok
	bad.Interests = make([]interest.ID, 26)
	if err := bad.Validate(); err == nil {
		t.Error("26 interests accepted")
	}
	bad = ok
	bad.DailyBudgetCents = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = ok
	bad.Schedule = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil schedule accepted")
	}
	bad = ok
	bad.Creative = Creative{}
	if err := bad.Validate(); err == nil {
		t.Error("empty creative accepted")
	}
}

func TestRunRequiresTargetInAudience(t *testing.T) {
	m, target := testWorld(t)
	eng, _ := testEngine(t, m)
	spec := specFor(target, 3, "c1")
	// Replace one interest with one the target does not hold.
	var missing interest.ID
	for i := 0; i < m.Catalog().Len(); i++ {
		if !target.HasInterest(interest.ID(i)) {
			missing = interest.ID(i)
			break
		}
	}
	spec.Interests[0] = missing
	if _, err := eng.Run(spec, target, rng.New(3)); err == nil {
		t.Fatal("target outside audience accepted")
	}
}

func TestRunNanoCampaign(t *testing.T) {
	m, target := testWorld(t)
	eng, logger := testEngine(t, m)
	// 22 random interests: unique with ~90% probability; try a few seeds
	// and require that successes dominate.
	successes, runs := 0, 10
	for seed := uint64(0); seed < uint64(runs); seed++ {
		res, err := eng.Run(specFor(target, 22, "n22"), target, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.AudienceSize < 1 {
			t.Fatalf("audience %d < 1", res.AudienceSize)
		}
		if res.Nanotargeted {
			successes++
			if res.Reached != 1 || !res.Seen || !res.DisclosureOK {
				t.Fatalf("inconsistent success: %+v", res)
			}
			// Success must be cheap (paper: 0–6 cents per campaign).
			if res.CostCents > 50 {
				t.Fatalf("nanotargeting cost %d cents implausible", res.CostCents)
			}
		}
	}
	if successes < runs/2 {
		t.Fatalf("only %d/%d 22-interest campaigns nanotargeted", successes, runs)
	}
	if logger.Clicks("n22") == 0 {
		t.Fatal("no clicks logged")
	}
}

func TestRunBroadCampaign(t *testing.T) {
	m, target := testWorld(t)
	eng, _ := testEngine(t, m)
	res, err := eng.Run(specFor(target, 2, "n2"), target, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.AudienceSize < 1000 {
		t.Fatalf("2-interest audience %d suspiciously small", res.AudienceSize)
	}
	if res.Nanotargeted {
		t.Fatal("broad campaign cannot nanotarget")
	}
	if res.Reached <= 1 {
		t.Fatalf("broad campaign reached %d users", res.Reached)
	}
	if res.Impressions < res.Reached {
		t.Fatalf("impressions %d below reach %d", res.Impressions, res.Reached)
	}
	// Budget-limited: spend is bounded by the paced budget (33h at
	// 70 €/day × pacing 0.3 ≈ 28.9 €).
	if res.CostCents > 3000 {
		t.Fatalf("cost %d cents exceeds paced budget", res.CostCents)
	}
	if res.CostCents < 500 {
		t.Fatalf("broad campaign cost %d cents too low", res.CostCents)
	}
}

func TestRunDeterministic(t *testing.T) {
	m, target := testWorld(t)
	engA, _ := testEngine(t, m)
	engB, _ := testEngine(t, m)
	a, err := engA.Run(specFor(target, 12, "n12"), target, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engB.Run(specFor(target, 12, "n12"), target, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("delivery not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestTFIWithinActiveTime(t *testing.T) {
	m, target := testWorld(t)
	eng, _ := testEngine(t, m)
	total := simclock.PaperSchedule().TotalActive()
	for seed := uint64(0); seed < 20; seed++ {
		res, err := eng.Run(specFor(target, 20, "n20"), target, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Seen {
			if res.TFI <= 0 || res.TFI > total {
				t.Fatalf("TFI %v outside (0, %v]", res.TFI, total)
			}
		} else if res.TargetImpressions != 0 {
			t.Fatal("not seen but target impressions > 0")
		}
	}
}

func TestMonotoneAudienceInInterests(t *testing.T) {
	m, target := testWorld(t)
	eng, _ := testEngine(t, m)
	prev := int64(-1)
	for _, n := range []int{2, 5, 9, 12, 18, 22} {
		res, err := eng.Run(specFor(target, n, "mono"), target, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		// Realized audiences fluctuate, but across a 10x span they must
		// shrink; allow slack for the binomial noise at small sizes.
		if prev >= 0 && res.AudienceSize > prev*2+10 {
			t.Fatalf("audience grew sharply at n=%d: %d > %d", n, res.AudienceSize, prev)
		}
		prev = res.AudienceSize
	}
}

func TestWhyAmISeeingThis(t *testing.T) {
	m, target := testWorld(t)
	spec := specFor(target, 5, "d1")
	d, err := WhyAmISeeingThis(spec, m.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.InterestNames) != 5 {
		t.Fatalf("%d names", len(d.InterestNames))
	}
	if !d.Worldwide {
		t.Fatal("worldwide flag lost")
	}
	if !d.MatchesSpec(spec, m.Catalog()) {
		t.Fatal("disclosure should match its own spec")
	}
	other := specFor(target, 4, "d2")
	if d.MatchesSpec(other, m.Catalog()) {
		t.Fatal("disclosure matched a different spec")
	}
}

func TestResultSucceededConditions(t *testing.T) {
	base := Result{Reached: 1, Seen: true, Clicks: 1, DisclosureOK: true}
	if !base.Succeeded() {
		t.Fatal("all conditions met should succeed")
	}
	for _, mutate := range []func(*Result){
		func(r *Result) { r.Reached = 2 },
		func(r *Result) { r.Seen = false },
		func(r *Result) { r.Clicks = 0 },
		func(r *Result) { r.DisclosureOK = false },
	} {
		r := base
		mutate(&r)
		if r.Succeeded() {
			t.Fatalf("missing condition should fail: %+v", r)
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	m, _ := testWorld(t)
	clock := simclock.NewSim(time.Unix(0, 0))
	logger, _ := weblog.NewLogger([]byte("0123456789abcdef0123456789abcdef"), clock)
	aud := audience.Disabled(m)
	if _, err := NewEngineWithAudience(DefaultDeliveryConfig(), nil, logger); err == nil {
		t.Error("nil audience engine accepted")
	}
	if _, err := NewEngineWithAudience(DefaultDeliveryConfig(), aud, nil); err == nil {
		t.Error("nil logger accepted")
	}
	bad := DefaultDeliveryConfig()
	bad.OpportunityRate = 0
	if _, err := NewEngineWithAudience(bad, aud, logger); err == nil {
		t.Error("zero opportunity rate accepted")
	}
}

func TestCPMDomeShape(t *testing.T) {
	m, _ := testWorld(t)
	eng, _ := testEngine(t, m)
	r := rng.New(1)
	avg := func(a float64) float64 {
		sum := 0.0
		for i := 0; i < 200; i++ {
			sum += eng.cpmCents(a, r)
		}
		return sum / 200
	}
	nano := avg(1)
	knee := avg(200)
	broad := avg(5_000_000)
	if !(knee > nano) {
		t.Fatalf("CPM should peak at the knee: knee %v <= nano %v", knee, nano)
	}
	if !(knee > broad*10) {
		t.Fatalf("broad CPM %v should be far below knee %v", broad, knee)
	}
}
