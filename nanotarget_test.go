package nanotarget

import (
	"bytes"
	"strings"
	"testing"
)

// demoWorld builds a fast, small world shared by the facade tests.
func demoWorld(t testing.TB) *World {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.Population.Seed = 7
	cfg.Population.CatalogSize = 4000
	cfg.Population.PanelSize = 150
	cfg.Population.ProfileMedian = 80
	cfg.Population.ActivityGrid = 160
	w, err := NewWorldFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldBasics(t *testing.T) {
	w := demoWorld(t)
	if w.PanelSize() != 150 {
		t.Fatalf("panel size %d", w.PanelSize())
	}
	if w.CatalogSize() != 4000 {
		t.Fatalf("catalog size %d", w.CatalogSize())
	}
	if w.Population() != 1_500_000_000 {
		t.Fatalf("population %d", w.Population())
	}
	if !strings.Contains(w.DescribePanel(), "150 users") {
		t.Fatalf("describe: %s", w.DescribePanel())
	}
}

func TestWorldDeterministic(t *testing.T) {
	a := demoWorld(t)
	b := demoWorld(t)
	ia, err := a.RandomInterestsOf(0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := b.RandomInterestsOf(0, 5, 1)
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("worlds with equal seeds diverge")
		}
	}
}

func TestSearchAndReach(t *testing.T) {
	w := demoWorld(t)
	res := w.SearchInterests("coffee", 5)
	if len(res) == 0 {
		t.Fatal("no search results")
	}
	reach, err := w.PotentialReach([]string{res[0].Name})
	if err != nil {
		t.Fatal(err)
	}
	if reach < 20 {
		t.Fatalf("reach %d below floor", reach)
	}
	if _, err := w.PotentialReach([]string{"no such interest"}); err == nil {
		t.Fatal("unknown interest accepted")
	}
}

func TestRandomInterestsOfValidation(t *testing.T) {
	w := demoWorld(t)
	if _, err := w.RandomInterestsOf(-1, 3, 0); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := w.RandomInterestsOf(0, 100000, 0); err == nil {
		t.Error("oversized draw accepted")
	}
	names, err := w.RandomInterestsOf(0, 3, 0)
	if err != nil || len(names) != 3 {
		t.Fatalf("draw failed: %v %v", names, err)
	}
}

func TestEstimateUniquenessFacade(t *testing.T) {
	w := demoWorld(t)
	study, err := w.EstimateUniqueness(UniquenessOptions{BootstrapIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	rows := study.Estimates()
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	lp, err := study.Estimate("LP", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := study.Estimate("R", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lp.NP >= r.NP {
		t.Fatalf("LP %.2f should need fewer interests than Random %.2f", lp.NP, r.NP)
	}
	if lp.CILo > lp.NP || lp.CIHi < lp.NP {
		t.Logf("note: LP point estimate outside CI: %+v", lp)
	}
	vas, err := study.VAS("R", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vas) == 0 || vas[0].N != 1 {
		t.Fatalf("bad VAS: %+v", vas)
	}
	for i := 1; i < len(vas); i++ {
		if vas[i].AudienceSize > vas[i-1].AudienceSize {
			t.Fatal("VAS not decreasing")
		}
	}
	var buf bytes.Buffer
	if err := study.WriteTable1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "N_P") {
		t.Fatal("table header missing")
	}
	if _, err := study.Estimate("LP", 0.42); err == nil {
		t.Fatal("unknown P accepted")
	}
	if _, err := study.VAS("XX", 0.5); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestUniquenessUnderFloors(t *testing.T) {
	w := demoWorld(t)
	rows, err := w.UniquenessUnderFloors(nil, 0.9, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (floors 20/100/1000)", len(rows))
	}
	for i, r := range rows {
		if r.Estimate.NP <= 0 {
			t.Fatalf("floor %d: bad N_0.9 %v", r.Floor, r.Estimate.NP)
		}
		if r.Estimate.Strategy != "R" {
			t.Fatalf("floor %d: strategy %q", r.Floor, r.Estimate.Strategy)
		}
		// Raising the reporting floor censors the VAS tail earlier, so the
		// replay must stay well-defined; exact monotonicity is a modeling
		// question, but estimates must stay in a sane band.
		if r.Estimate.NP > 100 {
			t.Fatalf("floor %d: implausible N_0.9 %v", r.Floor, r.Estimate.NP)
		}
		if i > 0 && rows[i].Floor <= rows[i-1].Floor {
			t.Fatal("default floors not ascending")
		}
	}
	// Deterministic per (world seed, floor): a fresh world reproduces it.
	again, err := demoWorld(t).UniquenessUnderFloors(nil, 0.9, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("floor replay not deterministic: %+v vs %+v", rows[i], again[i])
		}
	}
	if _, err := w.UniquenessUnderFloors([]int64{0}, 0.9, 10); err == nil {
		t.Fatal("non-positive floor accepted")
	}
}

func TestEstimateUniquenessUnknownStrategy(t *testing.T) {
	w := demoWorld(t)
	if _, err := w.EstimateUniqueness(UniquenessOptions{Strategies: []string{"nope"}}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestGroupUniquenessFacade(t *testing.T) {
	w := demoWorld(t)
	res, err := w.GroupUniqueness(ByGender, 0.9, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 { // 2 groups × 2 strategies
		t.Fatalf("%d group results", len(res))
	}
	labels := map[string]bool{}
	for _, g := range res {
		labels[g.Group] = true
		if g.Users <= 0 || g.Estimate.NP <= 0 {
			t.Fatalf("bad group row: %+v", g)
		}
	}
	if !labels["Men"] || !labels["Women"] {
		t.Fatalf("labels: %v", labels)
	}
}

func TestRunNanotargetingFacade(t *testing.T) {
	w := demoWorld(t)
	rep, err := w.RunNanotargeting(NanotargetingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows()
	if len(rows) != 21 {
		t.Fatalf("%d rows, want 21", len(rows))
	}
	succ, total := rep.SuccessesWithAtLeast(18)
	if total != 9 {
		t.Fatalf("18+ campaigns: %d", total)
	}
	if succ < 5 {
		t.Fatalf("only %d/9 18+ campaigns succeeded", succ)
	}
	var buf bytes.Buffer
	if err := rep.WriteTable2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "campaigns: 21") {
		t.Fatal("table missing summary")
	}
}

func TestInterestRiskAndRemoval(t *testing.T) {
	w := demoWorld(t)
	rows, err := w.InterestRisk(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty risk report")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].AudienceSize < rows[i-1].AudienceSize {
			t.Fatal("risk rows not ascending")
		}
	}
	removed, err := w.RemoveRiskyInterests(0, "orange")
	if err != nil {
		t.Fatal(err)
	}
	after, _ := w.InterestRisk(0)
	if len(after) != len(rows)-removed {
		t.Fatalf("profile size %d after removing %d from %d", len(after), removed, len(rows))
	}
	for _, r := range after {
		if r.Risk == "red" || r.Risk == "orange" {
			t.Fatalf("dangerous interest survived: %+v", r)
		}
	}
	if _, err := w.RemoveRiskyInterests(0, "purple"); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestEvaluatePoliciesFacade(t *testing.T) {
	w := demoWorld(t)
	out, err := w.EvaluatePolicies(PolicyOptions{Victims: 10, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 { // none, cap, floor100, floor1000, stacked
		t.Fatalf("%d outcomes", len(out))
	}
	baseline := out[0]
	if baseline.Policy != "none" || baseline.Attacks == 0 {
		t.Fatalf("baseline: %+v", baseline)
	}
	last := out[len(out)-1]
	if last.SuccessRate > 0 {
		t.Fatalf("stacked policy should stop all attacks: %+v", last)
	}
}

func TestEstimateDemographicBoost(t *testing.T) {
	w := demoWorld(t)
	boost, err := w.EstimateDemographicBoost(DemographicKnowledgeOptions{
		Country:        true,
		Gender:         true,
		AgeYears:       true,
		AgeSlack:       2,
		BootstrapIters: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if boost.P != 0.9 {
		t.Fatalf("default P = %v", boost.P)
	}
	if boost.WithDemographics >= boost.InterestOnly {
		t.Fatalf("demographics should lower N_P: %+v", boost)
	}
	if boost.Saved <= 0 {
		t.Fatalf("saved = %v", boost.Saved)
	}
}

func TestNewWorldErrors(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Population.CatalogSize = 0
	if _, err := NewWorldFromConfig(cfg); err == nil {
		t.Fatal("zero catalog accepted")
	}
	cfg.Population.CatalogSize = 100
	cfg.Population.PanelSize = 0
	if _, err := NewWorldFromConfig(cfg); err == nil {
		t.Fatal("zero panel accepted")
	}
}
