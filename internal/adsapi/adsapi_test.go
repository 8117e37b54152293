package adsapi

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/serving"
)

func testModel(t testing.TB) *population.Model {
	t.Helper()
	icfg := interest.DefaultConfig()
	icfg.Size = 2000
	cat, err := interest.Generate(icfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := population.DefaultConfig(cat)
	pcfg.ActivityGridSize = 128
	m, err := population.NewModel(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// localBackend serves m through a cached exact-mode audience engine.
func localBackend(t testing.TB, m *population.Model) *serving.LocalBackend {
	t.Helper()
	b, err := serving.NewLocalBackend(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testServer starts cfg over HTTP; a nil Backend serves a fresh testModel.
func testServer(t testing.TB, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = localBackend(t, testModel(t))
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func testClient(t testing.TB, ts *httptest.Server, token string) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		BaseURL:     ts.URL,
		AccessToken: token,
		AccountID:   "42",
		RetryBase:   time.Millisecond,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func es() GeoLocations { return GeoLocations{Countries: []string{"ES"}} }

func TestFBInterestIDRoundtrip(t *testing.T) {
	for _, id := range []interest.ID{0, 1, 99_999} {
		s := FBInterestID(id)
		back, err := ParseFBInterestID(s)
		if err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("roundtrip %d -> %s -> %d", id, s, back)
		}
	}
	for _, raw := range malformedFBInterestIDs {
		if id, err := ParseFBInterestID(raw); err == nil {
			t.Errorf("ParseFBInterestID(%q) = %d, want an error", raw, id)
		}
	}
}

// malformedFBInterestIDs are identifiers ParseFBInterestID must reject:
// garbage, an ID below the base, and sign, space, leading-zero,
// trailing-byte and out-of-range spellings of (or beside) 6000000000002.
var malformedFBInterestIDs = []string{
	"",
	"abc",
	"5",
	" 6000000000002",
	"6000000000002 ",
	"+6000000000002",
	"-6000000000002",
	"06000000000002",
	"6000000000002xyz",
	"6000000000002 7",
	"6_000_000_000_002",
	"0x57598d3ac002",
	"6004294967298", // 2^32 past the base: would alias interest 2 as a uint32
	"9223372036854775808",
}

func TestReachEstimateBasic(t *testing.T) {
	srv, ts := testServer(t, ServerConfig{})
	c := testClient(t, ts, "")
	ctx := context.Background()
	reach, err := c.ReachEstimate(ctx, ConjunctionSpec(es(), []interest.ID{5}))
	if err != nil {
		t.Fatal(err)
	}
	if reach < srv.Era().MinReach {
		t.Fatalf("reach %d below floor", reach)
	}
	// Adding an interest cannot increase reach.
	reach2, err := c.ReachEstimate(ctx, ConjunctionSpec(es(), []interest.ID{5, 100}))
	if err != nil {
		t.Fatal(err)
	}
	if reach2 > reach {
		t.Fatalf("conjunction reach grew: %d > %d", reach2, reach)
	}
}

func TestReachMatchesModel(t *testing.T) {
	m := testModel(t)
	_, ts := testServer(t, ServerConfig{Backend: localBackend(t, m)})
	c := testClient(t, ts, "")
	ids := []interest.ID{3, 70, 500}
	viaHTTP, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), ids))
	if err != nil {
		t.Fatal(err)
	}
	filter := population.DemoFilter{Countries: []string{"ES"}}
	want := m.ExpectedAudienceConditional(filter, ids)
	floored := int64(want + 0.5)
	if floored < Era2017.MinReach {
		floored = Era2017.MinReach
	}
	if viaHTTP != floored {
		t.Fatalf("HTTP reach %d != model %d", viaHTTP, floored)
	}
}

func TestReachFloorByEra(t *testing.T) {
	m := testModel(t)
	rare := m.Catalog().RarestFirst()[:25]
	for _, era := range []Era{Era2017, EraWorkaround, Era2020} {
		_, ts := testServer(t, ServerConfig{Backend: localBackend(t, m), Era: era})
		c := testClient(t, ts, "")
		spec := ConjunctionSpec(GeoLocations{Worldwide: era.AllowWorldwide, Countries: pick(era)}, rare)
		reach, err := c.ReachEstimate(context.Background(), spec)
		if err != nil {
			t.Fatalf("era %s: %v", era.Name, err)
		}
		if reach != era.MinReach {
			t.Fatalf("era %s: rare conjunction reach %d, want floor %d", era.Name, reach, era.MinReach)
		}
	}
}

func pick(era Era) []string {
	if era.AllowWorldwide {
		return nil
	}
	return []string{"ES"}
}

func TestValidationErrors(t *testing.T) {
	_, ts := testServer(t, ServerConfig{})
	c := testClient(t, ts, "")
	ctx := context.Background()

	cases := []struct {
		name string
		spec TargetingSpec
	}{
		{"no location", TargetingSpec{}},
		{"worldwide in 2017", TargetingSpec{GeoLocations: GeoLocations{Worldwide: true}}},
		{"unknown country", ConjunctionSpec(GeoLocations{Countries: []string{"XX"}}, nil)},
		{"bad gender", TargetingSpec{GeoLocations: es().clone(), Genders: []int{3}}},
		{"inverted ages", TargetingSpec{GeoLocations: es().clone(), AgeMin: 40, AgeMax: 20}},
		{"unknown interest", TargetingSpec{GeoLocations: es().clone(), FlexibleSpec: []FlexibleClause{
			{Interests: []InterestRef{{ID: FBInterestID(interest.ID(999_999))}}}}}},
	}
	for _, tc := range cases {
		_, err := c.ReachEstimate(ctx, tc.spec)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeInvalidParam {
			t.Errorf("%s: want invalid-param APIError, got %v", tc.name, err)
		}
	}
}

func (g GeoLocations) clone() GeoLocations { return g }

func TestTooManyInterests(t *testing.T) {
	_, ts := testServer(t, ServerConfig{})
	c := testClient(t, ts, "")
	ids := make([]interest.ID, 26)
	for i := range ids {
		ids[i] = interest.ID(i)
	}
	_, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), ids))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeInvalidParam {
		t.Fatalf("26 interests should be rejected, got %v", err)
	}
	// 25 is the documented maximum and must pass.
	if _, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), ids[:25])); err != nil {
		t.Fatalf("25 interests rejected: %v", err)
	}
}

func TestTooManyLocations(t *testing.T) {
	_, ts := testServer(t, ServerConfig{})
	c := testClient(t, ts, "")
	var countries []string
	for i := 0; i < 51; i++ {
		countries = append(countries, "ES")
	}
	_, err := c.ReachEstimate(context.Background(), ConjunctionSpec(GeoLocations{Countries: countries}, nil))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeInvalidParam {
		t.Fatalf("51 locations should be rejected, got %v", err)
	}
}

func TestAuthRequired(t *testing.T) {
	_, ts := testServer(t, ServerConfig{Tokens: []string{"sesame"}})
	bad := testClient(t, ts, "wrong")
	_, err := bad.ReachEstimate(context.Background(), ConjunctionSpec(es(), nil))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeAuth {
		t.Fatalf("want auth error, got %v", err)
	}
	good := testClient(t, ts, "sesame")
	if _, err := good.ReachEstimate(context.Background(), ConjunctionSpec(es(), nil)); err != nil {
		t.Fatalf("valid token rejected: %v", err)
	}
}

func TestRateLimitAndRetry(t *testing.T) {
	clock := time.Unix(0, 0)
	_, ts := testServer(t, ServerConfig{
		RateLimit: 1,
		RateBurst: 2,
		Now:       func() time.Time { return clock },
	})
	// Client whose Sleep advances the simulated server clock, refilling the
	// bucket — so retries eventually succeed.
	c, err := NewClient(ClientConfig{
		BaseURL:    ts.URL,
		AccountID:  "42",
		MaxRetries: 6,
		RetryBase:  time.Second,
		Sleep: func(ctx context.Context, d time.Duration) error {
			clock = clock.Add(d)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := ConjunctionSpec(es(), []interest.ID{1})
	for i := 0; i < 8; i++ {
		if _, err := c.ReachEstimate(ctx, spec); err != nil {
			t.Fatalf("request %d failed despite retries: %v", i, err)
		}
	}
}

func TestRateLimitExhaustion(t *testing.T) {
	fixed := time.Unix(0, 0)
	_, ts := testServer(t, ServerConfig{
		RateLimit: 0.0001, // effectively never refills
		RateBurst: 1,
		Now:       func() time.Time { return fixed },
	})
	c := testClient(t, ts, "")
	ctx := context.Background()
	spec := ConjunctionSpec(es(), []interest.ID{1})
	if _, err := c.ReachEstimate(ctx, spec); err != nil {
		t.Fatalf("first request should pass: %v", err)
	}
	_, err := c.ReachEstimate(ctx, spec)
	if err == nil {
		t.Fatal("rate limit never triggered")
	}
	if !IsRateLimited(errors.Unwrap(err)) && !IsRateLimited(err) {
		t.Fatalf("want rate-limit error, got %v", err)
	}
}

func TestSearchInterests(t *testing.T) {
	m := testModel(t)
	_, ts := testServer(t, ServerConfig{Backend: localBackend(t, m)})
	c := testClient(t, ts, "")
	res, err := c.SearchInterests(context.Background(), "coffee", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res) > 5 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		id, err := ParseFBInterestID(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		in := m.Catalog().MustGet(id)
		if r.Name != in.Name || r.Topic != in.Category {
			t.Fatalf("result mismatch: %+v vs %+v", r, in)
		}
		if r.AudienceSize <= 0 {
			t.Fatal("missing audience size")
		}
	}
}

func TestCampaignLifecycleAndInsights(t *testing.T) {
	srv, ts := testServer(t, ServerConfig{})
	c := testClient(t, ts, "")
	ctx := context.Background()
	camp, err := c.CreateCampaign(ctx, CampaignParams{
		Name:             "nanotarget user1 n12",
		Objective:        "REACH",
		Status:           "ACTIVE",
		DailyBudgetCents: 7000,
		Targeting:        ConjunctionSpec(es(), []interest.ID{1, 2, 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if camp.ID == "" || camp.EstimatedReach <= 0 {
		t.Fatalf("bad campaign: %+v", camp)
	}
	// Insights start empty.
	in, err := c.Insights(ctx, camp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if in.Impressions != 0 {
		t.Fatalf("fresh campaign has impressions: %+v", in)
	}
	// Attach delivery results and read them back.
	if err := srv.SetInsights(camp.ID, Insights{
		Reach: 1, Impressions: 3, Clicks: 1, SpendCents: 2, Currency: "EUR",
	}); err != nil {
		t.Fatal(err)
	}
	in, err = c.Insights(ctx, camp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if in.Reach != 1 || in.Impressions != 3 || in.CPMCents <= 0 {
		t.Fatalf("insights roundtrip: %+v", in)
	}
	// Unknown campaign is a 404-style API error.
	if _, err := c.Insights(ctx, "nope"); err == nil {
		t.Fatal("unknown campaign accepted")
	}
	if err := srv.SetInsights("nope", Insights{}); err == nil {
		t.Fatal("SetInsights on unknown campaign accepted")
	}
}

func TestNarrowAudienceWarning(t *testing.T) {
	m := testModel(t)
	_, ts := testServer(t, ServerConfig{Backend: localBackend(t, m)})
	c := testClient(t, ts, "")
	rare := m.Catalog().RarestFirst()[:20]
	camp, err := c.CreateCampaign(context.Background(), CampaignParams{
		Name: "narrow", Targeting: ConjunctionSpec(es(), rare),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !camp.NarrowAudienceWarning {
		t.Fatalf("floor-level audience should warn: %+v", camp)
	}
	broad, err := c.CreateCampaign(context.Background(), CampaignParams{
		Name: "broad", Targeting: ConjunctionSpec(es(), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if broad.NarrowAudienceWarning {
		t.Fatalf("country-wide audience should not warn: %+v", broad)
	}
}

func TestAccountDisabled(t *testing.T) {
	srv, ts := testServer(t, ServerConfig{})
	c := testClient(t, ts, "")
	ctx := context.Background()
	if _, err := c.ReachEstimate(ctx, ConjunctionSpec(es(), nil)); err != nil {
		t.Fatal(err)
	}
	srv.DisableAccount()
	_, err := c.ReachEstimate(ctx, ConjunctionSpec(es(), nil))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeAccountDisabled {
		t.Fatalf("want account-disabled error, got %v", err)
	}
}

func TestUnionSemantics(t *testing.T) {
	// OR within a clause must yield reach >= either single interest.
	m := testModel(t)
	_, ts := testServer(t, ServerConfig{Backend: localBackend(t, m)})
	c := testClient(t, ts, "")
	ctx := context.Background()
	a, b := interest.ID(10), interest.ID(20)
	union := TargetingSpec{GeoLocations: es(), FlexibleSpec: []FlexibleClause{
		{Interests: []InterestRef{{ID: FBInterestID(a)}, {ID: FBInterestID(b)}}},
	}}
	rUnion, err := c.ReachEstimate(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	rA, _ := c.ReachEstimate(ctx, ConjunctionSpec(es(), []interest.ID{a}))
	rB, _ := c.ReachEstimate(ctx, ConjunctionSpec(es(), []interest.ID{b}))
	if rUnion < rA || rUnion < rB {
		t.Fatalf("union reach %d below singles %d/%d", rUnion, rA, rB)
	}
	// And the union must not exceed the sum.
	if rUnion > rA+rB {
		t.Fatalf("union reach %d exceeds sum %d", rUnion, rA+rB)
	}
}

func TestRoundReach(t *testing.T) {
	m := testModel(t)
	_, ts := testServer(t, ServerConfig{Backend: localBackend(t, m), RoundReach: true})
	c := testClient(t, ts, "")
	reach, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), []interest.ID{1}))
	if err != nil {
		t.Fatal(err)
	}
	if reach >= 1000 {
		// Must be round to 2 significant digits.
		mag := int64(1)
		for v := reach; v >= 100; v /= 10 {
			mag *= 10
		}
		if reach%mag != 0 {
			t.Fatalf("reach %d not rounded", reach)
		}
	}
}

func TestRoundSignificant(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{999, 999}, {1000, 1000}, {1234, 1200}, {1250, 1300},
		{987654, 990000}, {20, 20},
	}
	for _, c := range cases {
		if got := roundSignificant(c.in, 2); got != c.want {
			t.Errorf("roundSignificant(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSourceAdapterAgainstModelSource(t *testing.T) {
	m := testModel(t)
	_, ts := testServer(t, ServerConfig{Backend: localBackend(t, m)})
	c := testClient(t, ts, "")
	src := &Source{Client: c, Geo: es(), MinReach: Era2017.MinReach}
	if src.Floor() != 20 {
		t.Fatalf("floor = %d", src.Floor())
	}
	ids := []interest.ID{2, 4, 8}
	viaHTTP, err := src.PotentialReach(ids)
	if err != nil {
		t.Fatal(err)
	}
	if viaHTTP <= 0 {
		t.Fatal("non-positive reach")
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("missing backend accepted")
	}
}
