package nanotarget

// Integration tests: cross-module properties that no single package can
// check — the HTTP Ads-API path must agree with the in-process audience
// oracle, the estimator must survive the platform's higher reach floors
// (§4.1's robustness claim), and hardening a profile via the FDVT defense
// must measurably reduce attack success.

import (
	"math"
	"net/http/httptest"
	"testing"

	"nanotarget/internal/adsapi"
	"nanotarget/internal/core"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/serving"
)

// TestHTTPStudyMatchesInProcess runs the §4 collection through the simulated
// Marketing API over real HTTP and verifies every audience sample equals the
// in-process model source — the paper's pipeline (API → quantiles → fit)
// with the network in the loop.
func TestHTTPStudyMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP study in -short mode")
	}
	w := demoWorld(t)
	backend, err := serving.NewLocalBackend(w.Model(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := adsapi.NewServer(adsapi.ServerConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, err := adsapi.NewClient(adsapi.ClientConfig{BaseURL: ts.URL, AccountID: "9"})
	if err != nil {
		t.Fatal(err)
	}
	// The 2017 API required explicit locations; use the top-50 proxy "ES"
	// worldwide equivalence is not needed — both sources use one filter.
	httpSrc := &adsapi.Source{
		Client:   client,
		Geo:      adsapi.GeoLocations{Countries: []string{"ES"}},
		MinReach: adsapi.Era2017.MinReach,
	}
	modelSrc := core.NewModelSource(w.Model())
	modelSrc.Filter.Countries = []string{"ES"}

	users := w.PanelUsers()[:25]
	viaHTTP, err := core.Collect(users, core.Random{}, wrapWithCatalog{httpSrc, w}, core.CollectConfig{
		MaxN: 10,
		Seed: rng.New(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	viaModel, err := core.Collect(users, core.Random{}, modelSrc, core.CollectConfig{
		MaxN: 10,
		Seed: rng.New(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := range viaHTTP.AS {
		for n := range viaHTTP.AS[u] {
			a, b := viaHTTP.AS[u][n], viaModel.AS[u][n]
			if math.IsNaN(a) != math.IsNaN(b) {
				t.Fatalf("user %d n %d: missing-sample mismatch", u, n+1)
			}
			if !math.IsNaN(a) && a != b {
				t.Fatalf("user %d n %d: HTTP %v != model %v", u, n+1, a, b)
			}
		}
	}
}

// wrapWithCatalog gives the HTTP source a catalog so selectors that need
// shares (LP) would also work; Random ignores it.
type wrapWithCatalog struct {
	*adsapi.Source
	w *World
}

func (s wrapWithCatalog) Catalog() *interest.Catalog { return s.w.Model().Catalog() }

// TestFloorRobustness supports §4.1's claim that the method "can still be
// applied for the current higher limit of 1,000 users": N_P estimated under
// a floor of 1000 must stay within a factor of two of the floor-20 estimate.
func TestFloorRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("floor robustness in -short mode")
	}
	w := demoWorld(t)
	estimate := func(floor int64) float64 {
		src := core.NewModelSource(w.Model())
		src.MinReach = floor
		samples, err := core.Collect(w.PanelUsers(), core.Random{}, src,
			core.CollectConfig{Seed: rng.New(7)})
		if err != nil {
			t.Fatal(err)
		}
		fit, err := core.FitVAS(samples.VAS(0.9), samples.FloorValue)
		if err != nil {
			t.Fatal(err)
		}
		return fit.NP
	}
	np20 := estimate(20)
	np1000 := estimate(1000)
	if np20 <= 0 || np1000 <= 0 {
		t.Fatalf("degenerate estimates: %v %v", np20, np1000)
	}
	ratio := np1000 / np20
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("floor-1000 estimate %v too far from floor-20 estimate %v", np1000, np20)
	}
}

// TestHardeningReducesAttack closes the defense loop: after removing red and
// orange interests (§6), a fixed-budget random-interest attack must succeed
// no more often than before.
func TestHardeningReducesAttack(t *testing.T) {
	w := demoWorld(t)
	const victim = 7
	const trials = 30

	successRate := func() float64 {
		succ := 0
		u := w.PanelUsers()[victim]
		if len(u.Interests) < 15 {
			t.Skip("victim profile too small for the attack budget")
		}
		for trial := 0; trial < trials; trial++ {
			r := w.root.Derive("harden").Derive(string(rune('a' + trial)))
			ids := core.Random{}.Select(u, w.Model().Catalog(), 15, r)
			if w.Model().RealizeAudience(population.DemoFilter{}, ids, r) == 1 {
				succ++
			}
		}
		return float64(succ) / trials
	}
	before := successRate()
	if _, err := w.RemoveRiskyInterests(victim, "yellow"); err != nil {
		t.Fatal(err)
	}
	after := successRate()
	if after > before {
		t.Fatalf("hardening increased attack success: %v -> %v", before, after)
	}
}

// TestMostPopularAblation verifies the MP baseline: combining a user's most
// popular interests must require far more interests for uniqueness than LP.
func TestMostPopularAblation(t *testing.T) {
	w := demoWorld(t)
	src := core.NewModelSource(w.Model())
	collect := func(sel core.Selector) float64 {
		samples, err := core.Collect(w.PanelUsers(), sel, src, core.CollectConfig{Seed: rng.New(5)})
		if err != nil {
			t.Fatal(err)
		}
		vas := samples.VAS(0.5)
		// Compare audience size at N=10 — MP should retain a vastly larger
		// audience than LP.
		return vas[9]
	}
	lp := collect(core.LeastPopular{})
	mp := collect(core.MostPopular{})
	if mp < lp*10 {
		t.Fatalf("MP audience at N=10 (%v) should dwarf LP (%v)", mp, lp)
	}
}
