package population

import (
	"math"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
)

// testModel builds a small, fast world for tests: 3k interests, coarse grid.
func testModel(t testing.TB, seed uint64) *Model {
	t.Helper()
	icfg := interest.DefaultConfig()
	icfg.Size = 3000
	cat, err := interest.Generate(icfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cat)
	cfg.ActivityGridSize = 192
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	icfg := interest.DefaultConfig()
	icfg.Size = 50
	cat, _ := interest.Generate(icfg, rng.New(1))
	cases := []Config{
		{},
		{Catalog: cat, Population: 0, ActivitySigma: 1, ActivityGridSize: 64},
		{Catalog: cat, Population: 10, ActivitySigma: 0, ActivityGridSize: 64},
		{Catalog: cat, Population: 10, ActivitySigma: 1, ActivityGridSize: 2},
	}
	for i, cfg := range cases {
		if _, err := NewModel(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestMarginalSharesCalibrated(t *testing.T) {
	m := testModel(t, 2)
	cat := m.Catalog()
	worst := 0.0
	for i := 0; i < cat.Len(); i += 37 {
		id := interest.ID(i)
		want := cat.Share(id)
		got := m.MarginalShare(id)
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.02 {
		t.Fatalf("worst calibration error %.4f > 2%%", worst)
	}
}

func TestActivityGridMassSumsToOne(t *testing.T) {
	m := testModel(t, 3)
	sum := 0.0
	for _, p := range m.actP {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("activity grid mass = %v", sum)
	}
}

func TestConjunctionShareDecreases(t *testing.T) {
	m := testModel(t, 4)
	q := m.NewQuery()
	prev := q.Share()
	if math.Abs(prev-1) > 1e-12 {
		t.Fatalf("empty conjunction share = %v, want 1", prev)
	}
	for i := 0; i < 20; i++ {
		q.And(interest.ID(i * 13))
		s := q.Share()
		if s > prev+1e-15 {
			t.Fatalf("share increased after adding interest %d: %v > %v", i, s, prev)
		}
		prev = s
	}
}

func TestConjunctionShareMatchesQuery(t *testing.T) {
	m := testModel(t, 5)
	ids := []interest.ID{1, 100, 500, 999}
	q := m.NewQuery()
	for _, id := range ids {
		q.And(id)
	}
	if a, b := q.Share(), m.ConjunctionShare(ids); math.Abs(a-b) > 1e-15 {
		t.Fatalf("query %v != direct %v", a, b)
	}
}

func TestQueryClone(t *testing.T) {
	m := testModel(t, 6)
	q := m.NewQuery().And(1).And(2)
	c := q.Clone()
	q.And(3)
	if c.Len() != 2 || q.Len() != 3 {
		t.Fatalf("clone len %d, orig %d", c.Len(), q.Len())
	}
	// Clone's share must equal a fresh 2-conjunction.
	want := m.ConjunctionShare([]interest.ID{1, 2})
	if math.Abs(c.Share()-want) > 1e-15 {
		t.Fatal("clone was mutated by original")
	}
}

func TestConjunctionPositiveCorrelation(t *testing.T) {
	// Activity mixing induces positive correlation between interests:
	// P(A ∧ B) > P(A)·P(B). This is the mechanism behind the paper's
	// concave VAS curves, so it must hold.
	m := testModel(t, 7)
	a, b := interest.ID(10), interest.ID(20)
	joint := m.ConjunctionShare([]interest.ID{a, b})
	indep := m.MarginalShare(a) * m.MarginalShare(b)
	if joint <= indep {
		t.Fatalf("joint %v should exceed independent %v under activity mixing", joint, indep)
	}
}

func TestExpectedAudienceScalesWithPop(t *testing.T) {
	m := testModel(t, 8)
	ids := []interest.ID{5}
	aud := m.ExpectedAudience(DemoFilter{}, ids)
	want := float64(m.Population()) * m.ConjunctionShare(ids)
	if math.Abs(aud-want)/want > 1e-12 {
		t.Fatalf("audience %v, want %v", aud, want)
	}
}

func TestExpectedAudienceConditionalAtLeastOne(t *testing.T) {
	m := testModel(t, 9)
	// A conjunction so narrow nobody else matches: conditional ≈ 1.
	rare := m.Catalog().RarestFirst()[:25]
	cond := m.ExpectedAudienceConditional(DemoFilter{}, rare)
	if cond < 1 {
		t.Fatalf("conditional audience %v < 1", cond)
	}
	if cond > 2 {
		t.Fatalf("25 rarest interests should be near-unique, got %v", cond)
	}
	uncond := m.ExpectedAudience(DemoFilter{}, rare)
	if uncond >= cond {
		t.Fatalf("unconditional %v should be below conditional %v for narrow audiences", uncond, cond)
	}
}

func TestDemoShareComposition(t *testing.T) {
	m := testModel(t, 10)
	all := m.DemoShare(DemoFilter{})
	if all != 1 {
		t.Fatalf("empty filter share = %v", all)
	}
	male := m.DemoShare(DemoFilter{Genders: []Gender{GenderMale}})
	if math.Abs(male-0.56) > 1e-9 {
		t.Fatalf("male share = %v", male)
	}
	female := m.DemoShare(DemoFilter{Genders: []Gender{GenderFemale}})
	if math.Abs(male+female-1) > 1e-9 {
		t.Fatalf("gender shares do not sum to 1: %v", male+female)
	}
	both := m.DemoShare(DemoFilter{Genders: []Gender{GenderMale, GenderFemale}})
	if math.Abs(both-1) > 1e-9 {
		t.Fatalf("both genders share = %v", both)
	}
	es := m.DemoShare(DemoFilter{Countries: []string{"ES"}})
	if es <= 0 || es >= 0.1 {
		t.Fatalf("Spain share = %v implausible", es)
	}
	ww := m.DemoShare(DemoFilter{Countries: []string{"WW"}})
	if ww != 1 {
		t.Fatalf("worldwide share = %v", ww)
	}
	young := m.DemoShare(DemoFilter{AgeMin: 13, AgeMax: 19})
	if math.Abs(young-0.11) > 0.001 {
		t.Fatalf("13-19 share = %v, want 0.11", young)
	}
	inverted := m.DemoShare(DemoFilter{AgeMin: 40, AgeMax: 20})
	if inverted != 0 {
		t.Fatalf("inverted age range share = %v", inverted)
	}
}

func TestActivityForCountInvertsExpectedCount(t *testing.T) {
	m := testModel(t, 11)
	for _, want := range []float64{1, 10, 100, 426, 2000} {
		tt := m.ActivityForCount(want, 0)
		got := m.ExpectedCount(tt, 0)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("count %v: inversion gave n(t)=%v", want, got)
		}
	}
}

func TestExpectedCountMonotone(t *testing.T) {
	m := testModel(t, 12)
	prev := 0.0
	for _, tt := range []float64{0.001, 0.01, 0.1, 1, 10, 100} {
		n := m.ExpectedCount(tt, 0)
		if n < prev {
			t.Fatalf("n(t) not monotone at t=%v", tt)
		}
		prev = n
	}
}

func TestSampleInterestsMatchesTarget(t *testing.T) {
	m := testModel(t, 13)
	r := rng.New(99)
	const target = 300.0
	tt := m.ActivityForCount(target, 0)
	totals := 0
	const reps = 30
	for i := 0; i < reps; i++ {
		totals += len(m.SampleInterests(tt, 0, r))
	}
	mean := float64(totals) / reps
	if math.Abs(mean-target)/target > 0.15 {
		t.Fatalf("mean sampled profile size %v, want ~%v", mean, target)
	}
}

func TestSampleInterestsSortedUnique(t *testing.T) {
	m := testModel(t, 14)
	r := rng.New(5)
	ids := m.SampleInterests(m.ActivityForCount(200, 0), 0, r)
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("interests not sorted/unique")
		}
	}
}

func TestTiltShiftsProfilesTowardPopular(t *testing.T) {
	m := testModel(t, 15)
	cat := m.Catalog()
	meanRarity := func(beta float64, seed uint64) float64 {
		r := rng.New(seed)
		tt := m.ActivityForCount(300, beta)
		sum, n := 0.0, 0
		for rep := 0; rep < 20; rep++ {
			for _, id := range m.SampleInterests(tt, beta, r) {
				sum += math.Log(cat.Share(id))
				n++
			}
		}
		return sum / float64(n)
	}
	base := meanRarity(0, 1)
	tilted := meanRarity(0.08, 1)
	if tilted <= base {
		t.Fatalf("positive tilt should raise mean log-share: base %v, tilted %v", base, tilted)
	}
}

func TestPlantUserRespectsDemographics(t *testing.T) {
	m := testModel(t, 16)
	r := rng.New(7)
	u := m.PlantUser(42, "ES", GenderFemale, 25, 400, r)
	if u.Country != "ES" || u.Gender != GenderFemale || u.Age != 25 {
		t.Fatalf("demographics not preserved: %+v", u)
	}
	if u.AgeGroup() != AgeEarlyAdulthood {
		t.Fatalf("age group = %v", u.AgeGroup())
	}
	if len(u.Interests) == 0 {
		t.Fatal("planted user has no interests")
	}
	wantTilt := m.Config().Demographics.TiltFor(GenderFemale, AgeEarlyAdulthood, "ES")
	if u.Tilt != wantTilt {
		t.Fatalf("tilt = %v, want %v", u.Tilt, wantTilt)
	}
}

func TestSampleUserPlausible(t *testing.T) {
	m := testModel(t, 17)
	r := rng.New(21)
	males, n := 0, 400
	for i := 0; i < n; i++ {
		u := m.SampleUser(int64(i), r)
		if u.Age < 13 || u.Age > 99 {
			t.Fatalf("age %d out of range", u.Age)
		}
		if u.Country == "" {
			t.Fatal("empty country")
		}
		if u.Gender == GenderMale {
			males++
		}
	}
	frac := float64(males) / float64(n)
	if frac < 0.45 || frac < 0.40 || frac > 0.70 {
		t.Fatalf("male fraction %v far from 0.56", frac)
	}
}

func TestHasInterest(t *testing.T) {
	u := &User{Interests: []interest.ID{2, 5, 9}}
	for _, id := range []interest.ID{2, 5, 9} {
		if !u.HasInterest(id) {
			t.Fatalf("missing %d", id)
		}
	}
	for _, id := range []interest.ID{0, 3, 10} {
		if u.HasInterest(id) {
			t.Fatalf("spurious %d", id)
		}
	}
}

func TestInterestsByPopularity(t *testing.T) {
	m := testModel(t, 18)
	r := rng.New(3)
	u := m.PlantUser(1, "US", GenderMale, 30, 200, r)
	sorted := u.InterestsByPopularity(m.Catalog())
	if len(sorted) != len(u.Interests) {
		t.Fatal("length changed")
	}
	for i := 1; i < len(sorted); i++ {
		if m.Catalog().Share(sorted[i]) < m.Catalog().Share(sorted[i-1]) {
			t.Fatal("not sorted by share")
		}
	}
}

func TestRealizeAudienceConsistent(t *testing.T) {
	m := testModel(t, 19)
	r := rng.New(11)
	ids := []interest.ID{3, 7}
	expected := m.ExpectedAudienceConditional(DemoFilter{}, ids)
	const reps = 60
	sum := 0.0
	for i := 0; i < reps; i++ {
		got := m.RealizeAudience(DemoFilter{}, ids, r)
		if got < 1 {
			t.Fatalf("realized audience %d < 1", got)
		}
		sum += float64(got)
	}
	mean := sum / reps
	if math.Abs(mean-expected)/expected > 0.2 {
		t.Fatalf("realized mean %v vs expected %v", mean, expected)
	}
}

func TestGroupForAge(t *testing.T) {
	cases := []struct {
		age  int
		want AgeGroup
	}{
		{0, AgeUnknown}, {-1, AgeUnknown}, {13, AgeAdolescence},
		{19, AgeAdolescence}, {20, AgeEarlyAdulthood}, {39, AgeEarlyAdulthood},
		{40, AgeAdulthood}, {64, AgeAdulthood}, {65, AgeMaturity}, {90, AgeMaturity},
	}
	for _, c := range cases {
		if got := GroupForAge(c.age); got != c.want {
			t.Errorf("GroupForAge(%d) = %v, want %v", c.age, got, c.want)
		}
	}
}

func TestWarmTilts(t *testing.T) {
	m := testModel(t, 20)
	m.WarmTilts(0.02, 0.05)
	if len(m.tiltTables) < 2 {
		t.Fatalf("expected warmed tables, got %d", len(m.tiltTables))
	}
}

// TestCountTablesBuiltOnFirstTouch gates the deferred count tables: a
// model serves reach estimates (conjunction, union and demographic shares,
// row-kernel queries) without building any count table, untilted included,
// and planting a panel user builds exactly the one its tilt needs.
func TestCountTablesBuiltOnFirstTouch(t *testing.T) {
	m := testModel(t, 21)
	if n := len(m.tiltTables); n != 0 {
		t.Fatalf("NewModel built %d count tables, want 0", n)
	}
	ids := []interest.ID{5, 40, 300, 2999}
	f := DemoFilter{Countries: []string{"ES"}, Genders: []Gender{GenderFemale}, AgeMin: 20, AgeMax: 39}
	for range 3 {
		_ = m.ConjunctionShare(ids)
		_ = m.UnionConjunctionShare([][]interest.ID{ids[:2], ids[2:]})
		_ = m.DemoShare(f)
		_ = m.ExpectedAudienceConditional(f, ids)
		q := m.BorrowQuery()
		for _, id := range ids {
			q.And(id)
		}
		_ = q.Share()
		q.Release()
		_ = m.NewQuery().And(ids[0]).Share()
	}
	if n := len(m.tiltTables); n != 0 {
		t.Fatalf("reach queries built %d count tables, want 0", n)
	}
	_ = m.PlantUser(1, "ES", GenderFemale, 30, 120, rng.New(1))
	if n := len(m.tiltTables); n != 1 {
		t.Fatalf("PlantUser built %d count tables, want 1", n)
	}
}

func BenchmarkConjunctionShare25(b *testing.B) {
	icfg := interest.DefaultConfig()
	icfg.Size = 3000
	cat, _ := interest.Generate(icfg, rng.New(1))
	m, _ := NewModel(DefaultConfig(cat))
	ids := make([]interest.ID, 25)
	for i := range ids {
		ids[i] = interest.ID(i * 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ConjunctionShare(ids)
	}
}

func BenchmarkSampleInterests(b *testing.B) {
	icfg := interest.DefaultConfig()
	icfg.Size = 3000
	cat, _ := interest.Generate(icfg, rng.New(1))
	m, _ := NewModel(DefaultConfig(cat))
	r := rng.New(2)
	tt := m.ActivityForCount(426, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SampleInterests(tt, 0, r)
	}
}
