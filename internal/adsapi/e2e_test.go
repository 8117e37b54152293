package adsapi

// End-to-end integration test: the full attacker session from the paper —
// authenticate, search interests, probe reach (including the permuted
// re-probes of the Faizullabhoy–Korolova reach-estimate abuse pattern),
// create a campaign, read insights — over real HTTP in both cache modes,
// asserting the engine's per-level counters show where each mode serves the
// workload from.

import (
	"context"
	"errors"
	"testing"

	"nanotarget/internal/audience"
	"nanotarget/internal/rng"
	"nanotarget/internal/serving"
)

func TestEndToEndSessionBothModes(t *testing.T) {
	for _, mode := range []audience.Mode{audience.ModeExact, audience.ModeCanonical} {
		t.Run(mode.String(), func(t *testing.T) {
			const token = "s3cret-e2e"
			m := testModel(t)
			backend, err := serving.NewLocalBackend(m, audience.New(m, audience.Options{Mode: mode}))
			if err != nil {
				t.Fatal(err)
			}
			srv, ts := testServer(t, ServerConfig{Backend: backend, Tokens: []string{token}})

			// --- auth: a bad token must be rejected with the FB OAuth error,
			// the real token accepted.
			bad := testClient(t, ts, "wrong-token")
			if _, err := bad.SearchInterests(context.Background(), "a", 1); err == nil {
				t.Fatal("bad token accepted")
			} else {
				var ae *APIError
				if !errors.As(err, &ae) || ae.Code != CodeAuth {
					t.Fatalf("bad token: got %v, want OAuth error %d", err, CodeAuth)
				}
			}
			c := testClient(t, ts, token)

			// --- search: find real interests to target.
			results, err := c.SearchInterests(context.Background(), "a", 25)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) < 8 {
				t.Fatalf("search returned %d interests, need >= 8", len(results))
			}
			refs := make([]InterestRef, 8)
			for i := range refs {
				refs[i] = InterestRef{ID: results[i].ID}
			}

			spec := func(order []int) TargetingSpec {
				s := TargetingSpec{GeoLocations: GeoLocations{Countries: []string{"ES"}}}
				for _, i := range order {
					s.FlexibleSpec = append(s.FlexibleSpec, FlexibleClause{Interests: []InterestRef{refs[i]}})
				}
				return s
			}
			base := []int{0, 1, 2, 3, 4, 5, 6, 7}

			// --- reachestimate: one priming probe, then adversarial permuted
			// re-probes of the SAME interest set.
			first, err := c.ReachEstimate(context.Background(), spec(base))
			if err != nil {
				t.Fatal(err)
			}
			if first <= 0 {
				t.Fatalf("reach = %d", first)
			}
			statsAfterFirst := srv.AudienceStats()

			r := rng.New(99)
			const reprobes = 12
			for k := 0; k < reprobes; k++ {
				order := append([]int{}, base...)
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				reach, err := c.ReachEstimate(context.Background(), spec(order))
				if err != nil {
					t.Fatal(err)
				}
				if mode == audience.ModeCanonical && reach != first {
					t.Fatalf("permuted probe %d: reach %d != %d (canonical mode must be permutation-invariant)",
						k, reach, first)
				}
			}
			st := srv.AudienceStats()
			setHits := st.Set.Hits - statsAfterFirst.Set.Hits
			switch mode {
			case audience.ModeCanonical:
				// Every permuted re-probe must be served by the set level.
				if setHits < reprobes {
					t.Fatalf("set level served %d of %d permuted re-probes (%+v)", setHits, reprobes, st)
				}
			case audience.ModeExact:
				if st.Set.Hits != 0 || st.Set.Misses != 0 || st.Set.Entries != 0 {
					t.Fatalf("exact mode must not touch the set level: %+v", st.Set)
				}
				// The ordered level still works the non-adversarial pattern:
				// the priming probe itself populated it.
				if st.Prefix.Entries == 0 {
					t.Fatalf("prefix level empty after probes: %+v", st)
				}
			}
			// The demo level memoizes the filter share in both modes: one
			// miss for the first probe, hits for every re-probe.
			if st.Demo.Hits == 0 {
				t.Fatalf("filter share never served from the demo level: %+v", st)
			}

			// --- campaign create: same targeting, then dashboard insights.
			camp, err := c.CreateCampaign(context.Background(), CampaignParams{
				Name:             "e2e " + mode.String(),
				Objective:        "REACH",
				Status:           "PAUSED",
				DailyBudgetCents: 7000,
				Targeting:        spec(base),
			})
			if err != nil {
				t.Fatal(err)
			}
			if camp.ID == "" {
				t.Fatal("campaign has no ID")
			}
			if camp.EstimatedReach != first {
				t.Fatalf("creation estimate %d != probe estimate %d (same spec, same cache)",
					camp.EstimatedReach, first)
			}
			if err := srv.SetInsights(camp.ID, Insights{Reach: 1, Impressions: 40, Clicks: 2, SpendCents: 123, Currency: "EUR"}); err != nil {
				t.Fatal(err)
			}
			in, err := c.Insights(context.Background(), camp.ID)
			if err != nil {
				t.Fatal(err)
			}
			if in.CampaignID != camp.ID || in.Reach != 1 || in.Impressions != 40 {
				t.Fatalf("insights round trip: %+v", in)
			}
		})
	}
}
