package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// startShardTopology boots count in-process httptest shard servers for cfg
// and returns their base URLs in shard order (cleanup via t.Cleanup).
func startShardTopology(t *testing.T, cfg worldcfg.Config, count int) []string {
	return startWrappedShardTopology(t, cfg, count, func(h http.Handler) http.Handler { return h })
}

// startWrappedShardTopology is startShardTopology with per-shard middleware —
// tests wrap the shard RPC in the Gate/Admission stack a production shard
// deploys behind.
func startWrappedShardTopology(t *testing.T, cfg worldcfg.Config, count int, wrap func(http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, count)
	for i := 0; i < count; i++ {
		b, info, err := NewShardBackend(cfg, i, count)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewShardServer(b, info)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(wrap(srv))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// startReplicatedShardTopology boots count shards, each served by `replicas`
// independently built replica servers — the per-process analogue of booting
// several `fbadsd -shard-of i/n` processes from the same config, so the
// replicas are byte-identical worlds by construction, not by sharing a
// backend. Each replica gets its own middleware stack. Returns the replica
// URL sets in shard order (ProxyConfig.Shards shape).
func startReplicatedShardTopology(t *testing.T, cfg worldcfg.Config, count, replicas int, wrap func(http.Handler) http.Handler) [][]string {
	t.Helper()
	topo := make([][]string, count)
	for i := 0; i < count; i++ {
		topo[i] = make([]string, replicas)
		for rep := 0; rep < replicas; rep++ {
			b, info, err := NewShardBackend(cfg, i, count)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewShardServer(b, info)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(wrap(srv))
			t.Cleanup(ts.Close)
			topo[i][rep] = ts.URL
		}
	}
	return topo
}

func newTestProxy(t *testing.T, cfg worldcfg.Config, urls []string, pc ProxyConfig) *ProxyBackend {
	t.Helper()
	if len(pc.Shards) == 0 {
		pc.URLs = urls
	}
	if pc.RetryBase == 0 {
		pc.RetryBase = time.Millisecond
	}
	p, err := NewProxyBackend(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProxyMatchesShardedBackend is the proxy's exactness property: for
// random conjunctions/unions, demo filters and conditional audiences, the
// network proxy's answers over httptest shard processes are BYTE-IDENTICAL
// to the in-process ShardedBackend at the same shard split and to
// LocalBackend — across replicas {1,2} × shards {1,2,3} × seeds {0,1,42}.
// This is the whole exactness argument for the topology: every shard's
// shares are the single world's and survive the JSON hop exactly, so the
// answer is independent of WHICH shard, and which replica of it, answers.
// A counting transport sees one reach-shares RPC per estimate at one
// replica (with two, hedges duplicate RPCs on purpose).
//
// The full robustness stack is deliberately LIVE while the property runs —
// per-replica circuit breakers at their twitchiest (threshold 1) on the
// proxy, every replica behind its own Gate + cost-charging Admission
// middleware, and (at replicas=2) hedging ARMED with an instant hedge delay
// so nearly every RPC races both replicas — proving the protection and
// tail-tolerance layers are bit-transparent on the healthy path, and that
// losing a hedge race never trips a breaker.
func TestProxyMatchesShardedBackend(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		cfg := smallConfig(seed)
		local, err := NewLocalBackendFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3} {
			for _, replicas := range []int{1, 2} {
				sharded, err := NewShardedBackend(context.Background(), cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				topo := startReplicatedShardTopology(t, cfg, shards, replicas, func(h http.Handler) http.Handler {
					// Generous limits: the stack must engage (keys resolve,
					// tokens charge, slots count) without ever rejecting.
					return NewGate(GateConfig{MaxInFlight: 64},
						NewAdmission(AdmissionConfig{
							Rate: 1e6, Burst: 1e6,
							Cost: func(*http.Request) float64 { return 2 },
						}, h))
				})
				ct := &countingTransport{base: NewShardTransport(), calls: map[string]map[string]int{}}
				pc := ProxyConfig{
					Shards:  topo,
					Breaker: BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
					Client:  &http.Client{Transport: ct},
				}
				if replicas > 1 {
					// Hedge essentially immediately: the injected Sleep makes
					// the hedge timer fire as soon as its goroutine runs.
					pc.HedgeAfter = time.Microsecond
					pc.Sleep = func(ctx context.Context, d time.Duration) error { return nil }
				}
				proxy := newTestProxy(t, cfg, nil, pc)
				if proxy.Population() != sharded.Population() {
					t.Fatalf("population mismatch: %d vs %d", proxy.Population(), sharded.Population())
				}
				if proxy.Catalog().Len() != sharded.Catalog().Len() {
					t.Fatalf("catalog mismatch: %d vs %d", proxy.Catalog().Len(), sharded.Catalog().Len())
				}
				r := rng.New(seed).Derive("proxy-property-queries")
				for trial := 0; trial < 25; trial++ {
					clauses := randomClauses(r, cfg.Population.CatalogSize)
					if got, want := proxy.UnionShare(context.Background(), clauses), sharded.UnionShare(context.Background(), clauses); got != want {
						t.Fatalf("seed %d shards=%d replicas=%d trial %d: proxy UnionShare = %v, sharded %v — must be byte-identical",
							seed, shards, replicas, trial, got, want)
					}
					f := randomFilter(r)
					if got, want := proxy.DemoShare(context.Background(), f), sharded.DemoShare(context.Background(), f); got != want {
						t.Fatalf("seed %d shards=%d replicas=%d trial %d: proxy DemoShare = %v, sharded %v — must be byte-identical",
							seed, shards, replicas, trial, got, want)
					}
					before := ct.total()
					gotD, gotU, err := proxy.ReachShares(context.Background(), f, clauses)
					if err != nil {
						t.Fatal(err)
					}
					if rpcs := ct.total() - before; replicas == 1 && rpcs != 1 {
						t.Fatalf("seed %d shards=%d trial %d: estimate took %d RPCs, want 1",
							seed, shards, trial, rpcs)
					}
					wantD, wantU, err := sharded.ReachShares(context.Background(), f, clauses)
					if err != nil {
						t.Fatal(err)
					}
					if gotD != wantD || gotU != wantU {
						t.Fatalf("seed %d shards=%d replicas=%d trial %d: proxy ReachShares = (%v, %v), sharded (%v, %v) — must be byte-identical",
							seed, shards, replicas, trial, gotD, gotU, wantD, wantU)
					}
					if localD, localU, _ := local.ReachShares(context.Background(), f, clauses); gotD != localD || gotU != localU {
						t.Fatalf("seed %d shards=%d replicas=%d trial %d: proxy ReachShares = (%v, %v), LocalBackend (%v, %v) — must be byte-identical",
							seed, shards, replicas, trial, gotD, gotU, localD, localU)
					}
					// Each fused factor is also the bit-identical single-share
					// answer: fusing changes the round trips, not the answer.
					if singleD, singleU := sharded.DemoShare(context.Background(), f), sharded.UnionShare(context.Background(), clauses); wantD != singleD || wantU != singleU {
						t.Fatalf("seed %d shards=%d trial %d: sharded ReachShares = (%v, %v), single-share queries (%v, %v)",
							seed, shards, trial, wantD, wantU, singleD, singleU)
					}
					conj := clauses[0]
					if got, want := proxy.ConditionalAudience(context.Background(), f, conj), sharded.ConditionalAudience(context.Background(), f, conj); got != want {
						t.Fatalf("seed %d shards=%d replicas=%d trial %d: proxy ConditionalAudience = %v, sharded %v — must be byte-identical",
							seed, shards, replicas, trial, got, want)
					}
				}
				st := proxy.HealthStats()
				if st.Down != 0 {
					t.Fatalf("seed %d shards=%d replicas=%d: healthy run marked replicas down: %+v", seed, shards, replicas, st)
				}
				if replicas > 1 && st.Hedged == 0 {
					t.Fatalf("seed %d shards=%d replicas=%d: hedging armed with an instant delay but no hedge launched", seed, shards, replicas)
				}
				for _, sh := range st.Shards {
					if sh.Breaker != "closed" {
						t.Fatalf("seed %d shards=%d replicas=%d: breaker %d/%d %s after healthy run (hedge losers must be neutral)",
							seed, shards, replicas, sh.Shard, sh.Replica, sh.Breaker)
					}
				}
			}
		}
	}
}

// TestProxyStatsAndWarmRows covers the diagnostic folds over the RPC
// topology: WarmRows warms every shard and AudienceStats sums their
// counters.
func TestProxyStatsAndWarmRows(t *testing.T) {
	cfg := smallConfig(1)
	urls := startShardTopology(t, cfg, 2)
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{})
	proxy.WarmRows(context.Background())
	// Each query goes to one shard in rotation, so 2·N queries ask every
	// shard twice: one miss, then one hit.
	clauses := [][]interest.ID{{1}, {3}}
	for k := 0; k < 2*proxy.NumShards(); k++ {
		proxy.UnionShare(context.Background(), clauses)
	}
	st := proxy.AudienceStats(context.Background())
	if st.Prefix.Misses+st.Set.Misses == 0 {
		t.Fatalf("no misses recorded across shards: %+v", st)
	}
	if st.Prefix.Hits+st.Set.Hits == 0 {
		t.Fatalf("no hits recorded across shards: %+v", st)
	}
}

func TestNewShardBackendErrors(t *testing.T) {
	cfg := smallConfig(1)
	if _, _, err := NewShardBackend(cfg, 0, 0); err == nil {
		t.Fatal("count 0 should fail")
	}
	if _, _, err := NewShardBackend(cfg, 2, 2); err == nil {
		t.Fatal("index == count should fail")
	}
	if _, _, err := NewShardBackend(cfg, -1, 2); err == nil {
		t.Fatal("negative index should fail")
	}
	cfg.Population.Population = 3
	if _, _, err := NewShardBackend(cfg, 0, 5); err == nil {
		t.Fatal("more shards than users should fail")
	}
}

func TestNewProxyBackendErrors(t *testing.T) {
	cfg := smallConfig(1)
	if _, err := NewProxyBackend(cfg, ProxyConfig{}); err == nil {
		t.Fatal("no URLs should fail")
	}
	if _, err := NewProxyBackend(cfg, ProxyConfig{URLs: []string{"a"}, Shards: [][]string{{"a"}}}); err == nil {
		t.Fatal("setting both URLs and Shards should fail")
	}
	if _, err := NewProxyBackend(cfg, ProxyConfig{Shards: [][]string{{"a"}, {}}}); err == nil {
		t.Fatal("a shard with no replicas should fail")
	}
	if _, err := NewProxyBackend(cfg, ProxyConfig{Shards: [][]string{{"a", " "}}}); err == nil {
		t.Fatal("a blank replica URL should fail")
	}
	if _, err := NewProxyBackend(cfg, ProxyConfig{URLs: []string{"a"}, HedgeAfter: -time.Second}); err == nil {
		t.Fatal("negative HedgeAfter should fail")
	}
	cfg.Population.Population = 2
	if _, err := NewProxyBackend(cfg, ProxyConfig{URLs: []string{"a", "b", "c"}}); err == nil {
		t.Fatal("more shards than users should fail")
	}
}

// TestShardServerEndpoints exercises the RPC surface directly: health
// identity, share endpoints, and the rejection paths (malformed body,
// unknown interest, wrong method).
func TestShardServerEndpoints(t *testing.T) {
	cfg := smallConfig(1)
	b, info, err := NewShardBackend(cfg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(b, info)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var health ShardHealthInfo
	getJSON(t, ts.URL+shardPathHealth, &health)
	wantRange := ShardRange{Lo: 0, Hi: cfg.Population.Population / 2}
	if health.Status != "ok" || health.Shard != 0 || health.Shards != 2 ||
		health.Lo != wantRange.Lo || health.Hi != wantRange.Hi ||
		health.Population != wantRange.Size() ||
		health.TotalPopulation != cfg.Population.Population ||
		health.CatalogSize != cfg.Population.CatalogSize {
		t.Fatalf("health identity wrong: %+v", health)
	}

	var out shardShareResponse
	f := randomFilter(rng.New(9))
	postJSON(t, ts.URL+shardPathDemo, shardShareRequest{Filter: &f}, &out)
	if want := b.DemoShare(context.Background(), f); out.Share != want {
		t.Fatalf("DemoShare over RPC = %v, local %v", out.Share, want)
	}
	postJSON(t, ts.URL+shardPathUnion, shardShareRequest{Clauses: [][]interest.ID{{1, 2}, {3}}}, &out)
	if want := b.UnionShare(context.Background(), [][]interest.ID{{1, 2}, {3}}); out.Share != want {
		t.Fatalf("UnionShare over RPC = %v, local %v", out.Share, want)
	}
	postJSON(t, ts.URL+shardPathConj, shardShareRequest{IDs: []interest.ID{1, 2}}, &out)
	if want := b.Engine().ConjunctionShare([]interest.ID{1, 2}); out.Share != want {
		t.Fatalf("ConjunctionShare over RPC = %v, local %v", out.Share, want)
	}

	for _, tc := range []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"malformed body", http.MethodPost, shardPathUnion, "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, shardPathUnion, `{"bogus": 1}`, http.StatusBadRequest},
		{"trailing value", http.MethodPost, shardPathConj, `{"ids": [1]} {"ids": [2]}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, shardPathReach, `{"clauses": [[1]]} trailing`, http.StatusBadRequest},
		{"unknown interest", http.MethodPost, shardPathUnion, `{"clauses": [[999999]]}`, http.StatusBadRequest},
		{"unknown conjunction id", http.MethodPost, shardPathConj, `{"ids": [999999]}`, http.StatusBadRequest},
		{"wrong method", http.MethodGet, shardPathUnion, "", http.StatusMethodNotAllowed},
		{"health wrong method", http.MethodPost, shardPathHealth, "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}
}

// TestProxyRetriesTransientFailures verifies the bounded-retry path: a shard
// that 500s once per request is still served through, with the injected
// Sleep observing the exponential backoff.
func TestProxyRetriesTransientFailures(t *testing.T) {
	cfg := smallConfig(1)
	b, info, err := NewShardBackend(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(b, info)
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail {
			fail = false
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	var slept []time.Duration
	proxy := newTestProxy(t, cfg, []string{flaky.URL}, ProxyConfig{
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
		// Zero jitter pins the schedule so the sleep assertion below is
		// exact; the default jitter source is covered by
		// TestDefaultJitterBounds.
		Jitter: func(shard, replica, attempt int) float64 { return 0 },
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	want := b.UnionShare(context.Background(), [][]interest.ID{{1}})
	if got := proxy.UnionShare(context.Background(), [][]interest.ID{{1}}); got != want {
		t.Fatalf("share after retry = %v, want %v", got, want)
	}
	if len(slept) != 1 || slept[0] != time.Millisecond {
		t.Fatalf("expected one 1ms backoff sleep, got %v", slept)
	}
	if proxy.HealthStats().Down != 0 {
		t.Fatal("a retried-through transient should not mark the shard down")
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
