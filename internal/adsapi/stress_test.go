package adsapi

// Concurrent stress test: N goroutine clients hammer one server's reach and
// campaign-creation endpoints through a shared token with the rate limiter
// engaged and the audience cache enabled. Run under -race in CI, this
// exercises the server's lock discipline, the token-bucket accounting and
// the audience cache's thread safety on overlapping conjunction prefixes.
// Reach estimates are deterministic, so every client must see identical
// numbers for identical specs regardless of interleaving.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"nanotarget/internal/interest"
)

func TestServerConcurrentStress(t *testing.T) {
	const (
		token      = "stress-token"
		clients    = 8
		rounds     = 25
		maxPrefix  = 10
		rateLimit  = 200.0 // requests/second: high enough to mostly pass,
		rateBurst  = 50.0  // low enough that the limiter actually engages
		probeSeeds = 3
	)
	model := testModel(t)
	now := time.Now()
	var clockMu sync.Mutex
	// A slowly advancing deterministic clock: each authorize call advances
	// 1ms, so the bucket refills at a known rate and the limiter both
	// rejects (bursts) and recovers (refills) during the test.
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
	srv, ts := testServer(t, ServerConfig{
		Backend:   localBackend(t, model),
		Tokens:    []string{token},
		RateLimit: rateLimit,
		RateBurst: rateBurst,
		Now:       clock,
	})

	// Probe specs: overlapping prefixes of a few base conjunctions, the
	// attacker's §4 query pattern — exactly what the cache is for.
	var specs []TargetingSpec
	for s := 0; s < probeSeeds; s++ {
		base := make([]interest.ID, maxPrefix)
		for i := range base {
			base[i] = interest.ID((s*977 + i*131) % model.Catalog().Len())
		}
		for n := 1; n <= maxPrefix; n++ {
			specs = append(specs, ConjunctionSpec(es(), base[:n]))
		}
	}

	// Ground truth, queried once through a rate-unlimited server sharing
	// nothing with the stressed one.
	_, calm := testServer(t, ServerConfig{Backend: localBackend(t, model)})
	calmClient := testClient(t, calm, "")
	want := make([]int64, len(specs))
	for i, spec := range specs {
		reach, err := calmClient.ReachEstimate(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reach
	}

	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		rateLimited int
		served      int
		created     int
		failures    []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := testClient(t, ts, token)
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				i := (c*rounds + r) % len(specs)
				reach, err := client.ReachEstimate(ctx, specs[i])
				switch {
				case err == nil:
					mu.Lock()
					served++
					mu.Unlock()
					if reach != want[i] {
						fail("client %d round %d: reach %d != %d for spec %d", c, r, reach, want[i], i)
						return
					}
				case IsRateLimited(err):
					mu.Lock()
					rateLimited++
					mu.Unlock()
				default:
					fail("client %d round %d: unexpected error: %v", c, r, err)
					return
				}
				// Every few rounds, also create a campaign on the same spec.
				if r%5 != 0 {
					continue
				}
				camp, err := client.CreateCampaign(ctx, CampaignParams{
					Name:             fmt.Sprintf("stress-%d-%d", c, r),
					Status:           "PAUSED",
					DailyBudgetCents: 7000,
					Targeting:        specs[i],
				})
				switch {
				case err == nil:
					mu.Lock()
					created++
					mu.Unlock()
					if camp.ID == "" {
						fail("client %d round %d: campaign without ID", c, r)
						return
					}
					if camp.EstimatedReach != want[i] {
						fail("client %d round %d: campaign reach %d != %d", c, r, camp.EstimatedReach, want[i])
						return
					}
				case IsRateLimited(err):
					mu.Lock()
					rateLimited++
					mu.Unlock()
				default:
					fail("client %d round %d: campaign error: %v", c, r, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		return
	}
	if served == 0 {
		t.Fatal("rate limiter starved every request; stress test is vacuous")
	}
	// The shared-token bucket must have engaged at least once: 8 clients
	// burst far past the 50-token bucket at the simulated clock rate.
	if rateLimited == 0 {
		t.Fatalf("rate limiter never engaged (served %d)", served)
	}
	// Campaign store must hold exactly the successfully created campaigns,
	// each with a unique ID.
	campaigns := srv.Campaigns()
	if len(campaigns) != created {
		t.Fatalf("campaign store has %d entries, %d creations succeeded", len(campaigns), created)
	}
	ids := map[string]bool{}
	for _, c := range campaigns {
		if ids[c.ID] {
			t.Fatalf("duplicate campaign ID %q", c.ID)
		}
		ids[c.ID] = true
	}
	// The cache must have been shared across clients: far fewer misses than
	// probes, and plenty of hits.
	st := srv.AudienceStats().Total()
	if st.Hits == 0 {
		t.Fatalf("audience cache saw no hits under prefix-heavy load: %+v", st)
	}
	t.Logf("served %d reach + %d campaigns, %d rate-limited; cache %+v (hit rate %.1f%%)",
		served, created, rateLimited, st, 100*st.HitRate())
}
