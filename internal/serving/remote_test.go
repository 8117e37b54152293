package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// startReplicas boots n in-process httptest replica servers for cfg, each
// behind wrap, and returns their base URLs (cleanup via t.Cleanup). Every
// replica is the whole world, which is what the proxy's exactness rests on.
func startReplicas(t *testing.T, cfg worldcfg.Config, n int, wrap func(http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		b, info, err := NewReplicaBackend(cfg)
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

// noWrap is startReplicas' middleware for bare replica servers.
func noWrap(h http.Handler) http.Handler { return h }

// unionShare is the union factor b answers for clauses under no filter; an
// error fails t.
func unionShare(t testing.TB, b ReachBackend, clauses [][]interest.ID) float64 {
	t.Helper()
	_, union, err := b.ReachShares(context.Background(), population.DemoFilter{}, clauses)
	if err != nil {
		t.Fatal(err)
	}
	return union
}

func newTestProxy(t *testing.T, cfg worldcfg.Config, urls []string, pc ProxyConfig) *ProxyBackend {
	t.Helper()
	pc.URLs = urls
	if pc.RetryBase == 0 {
		pc.RetryBase = time.Millisecond
	}
	p, err := NewProxyBackend(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProxyMatchesLocalBackend is the proxy's exactness property: for random
// unions of conjunctions and demo filters, the network proxy's ReachShares
// over httptest replica processes is BYTE-IDENTICAL to LocalBackend's across
// replicas {1,2,3} × seeds {0,1,42}. This is the whole exactness argument
// for the topology: every replica is the single world and its shares
// survive the hop exactly, so the answer is independent of WHICH replica
// answers. Without hedging, HealthStats' per-replica RPC counts see one
// reachshares RPC per estimate (with hedging, duplicate RPCs are the point).
//
// The full robustness stack is deliberately LIVE while the property runs —
// per-replica circuit breakers at their twitchiest (threshold 1) on the
// proxy, every replica behind its own Gate + cost-charging Admission
// middleware, and (at 2+ replicas) hedging ARMED with an instant hedge
// delay so nearly every RPC races the replicas — proving the protection and
// tail-tolerance layers are bit-transparent on the healthy path, and that
// losing a hedge race never trips a breaker.
func TestProxyMatchesLocalBackend(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{0, 1, 42} {
		cfg := smallConfig(seed)
		local, err := NewLocalBackendFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, replicas := range []int{1, 2, 3} {
			urls := startReplicas(t, cfg, replicas, func(h http.Handler) http.Handler {
				// Generous limits: the stack must engage (keys resolve,
				// tokens charge, slots count) without ever rejecting.
				return NewGate(GateConfig{MaxInFlight: 64},
					NewAdmission(AdmissionConfig{
						Rate: 1e6, Burst: 1e6,
						Cost: func(r *http.Request) (float64, *http.Request) { return 2, r },
					}, h))
			})
			pc := ProxyConfig{Breaker: BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour}}
			if replicas > 1 {
				// Hedge essentially immediately: the injected Sleep makes
				// the hedge timer fire as soon as its goroutine runs.
				pc.HedgeAfter = time.Microsecond
				pc.Sleep = immediateSleep
			}
			proxy := newTestProxy(t, cfg, urls, pc)
			if proxy.Population() != local.Population() {
				t.Fatalf("population mismatch: %d vs %d", proxy.Population(), local.Population())
			}
			if proxy.Catalog().Len() != local.Catalog().Len() {
				t.Fatalf("catalog mismatch: %d vs %d", proxy.Catalog().Len(), local.Catalog().Len())
			}
			r := rng.New(seed).Derive("proxy-property-queries")
			for trial := 0; trial < 50; trial++ {
				clauses := randomClauses(r, cfg.Population.CatalogSize)
				f := randomFilter(r)
				before := rpcCounts(proxy)
				gotD, gotU, err := proxy.ReachShares(ctx, f, clauses)
				if err != nil {
					t.Fatal(err)
				}
				if rpcs := sum(rpcDelta(proxy, before)); replicas == 1 && rpcs != 1 {
					t.Fatalf("seed %d trial %d: estimate took %d RPCs, want 1", seed, trial, rpcs)
				}
				wantD, wantU, _ := local.ReachShares(ctx, f, clauses) // a LocalBackend never fails
				if gotD != wantD || gotU != wantU {
					t.Fatalf("seed %d replicas=%d trial %d: proxy ReachShares = (%v, %v), LocalBackend (%v, %v) — must be byte-identical",
						seed, replicas, trial, gotD, gotU, wantD, wantU)
				}
			}
			st := proxy.HealthStats()
			if st.Down != 0 {
				t.Fatalf("seed %d replicas=%d: healthy run marked replicas down: %+v", seed, replicas, st)
			}
			if replicas > 1 && st.Hedged == 0 {
				t.Fatalf("seed %d replicas=%d: hedging armed with an instant delay but no hedge launched", seed, replicas)
			}
			for _, sh := range st.Shards {
				if sh.Breaker != "closed" {
					t.Fatalf("seed %d replicas=%d: replica %d breaker %s after healthy run (hedge losers must be neutral)",
						seed, replicas, sh.Replica, sh.Breaker)
				}
			}
		}
	}
}

// TestProxyShareAdaptersMatchEngine pins the proxy's float64 adapters bit
// for bit against the engine calls they stand for, under the exact and
// canonical caches and with the cache off: DemoShare and UnionShare are
// ReachShares' two factors, and ConditionalAudience, which asks for its
// conjunction as single-interest clauses, equals
// Engine.ExpectedAudienceConditional.
func TestProxyShareAdaptersMatchEngine(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{0, 1, 42} {
		for _, cache := range []worldcfg.CacheParams{{Mode: audience.ModeExact}, {Mode: audience.ModeCanonical}, {Disabled: true}} {
			cfg := smallConfig(seed)
			cfg.Cache = cache
			local, err := NewLocalBackendFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e := local.Engine()
			proxy := newTestProxy(t, cfg, startReplicas(t, cfg, 1, noWrap), ProxyConfig{})
			r := rng.New(seed).Derive("proxy-adapter-queries")
			for trial := 0; trial < 25; trial++ {
				clauses, f := randomClauses(r, cfg.Population.CatalogSize), randomFilter(r)
				conj := clauses[0]
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"DemoShare", proxy.DemoShare(ctx, f), e.DemoShare(f)},
					{"UnionShare", proxy.UnionShare(ctx, clauses), e.UnionShare(clauses)},
					{"ConditionalAudience", proxy.ConditionalAudience(ctx, f, conj), e.ExpectedAudienceConditional(f, conj)},
				} {
					if c.got != c.want {
						t.Fatalf("seed %d cache %+v trial %d: proxy %s = %v, engine %v — must be byte-identical",
							seed, cache, trial, c.what, c.got, c.want)
					}
				}
			}
		}
	}
}

// TestProxyStatsAndWarmRows covers the diagnostic folds over the RPC
// topology: WarmRows warms every replica and AudienceStats sums their
// counters.
func TestProxyStatsAndWarmRows(t *testing.T) {
	cfg := smallConfig(1)
	urls := startReplicas(t, cfg, 2, noWrap)
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{})
	proxy.WarmRows(context.Background())
	// Each query goes to one replica in rotation, so 2·N queries ask every
	// replica twice: one miss, then one hit.
	clauses := [][]interest.ID{{1}, {3}}
	for k := 0; k < 2*len(urls); k++ {
		unionShare(t, proxy, clauses)
	}
	st := proxy.AudienceStats(context.Background())
	if st.Prefix.Misses+st.Set.Misses == 0 {
		t.Fatalf("no misses recorded across replicas: %+v", st)
	}
	if st.Prefix.Hits+st.Set.Hits == 0 {
		t.Fatalf("no hits recorded across replicas: %+v", st)
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
	// Any valid index builds the whole world.
	b, info, err := NewShardBackend(cfg, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Population() != cfg.Population.Population || info.TotalPopulation != cfg.Population.Population || info.World != worldDigest(cfg) {
		t.Fatalf("shard 1 of 3: population %d, info %+v — want the whole world", b.Population(), info)
	}
}

func TestNewProxyBackendErrors(t *testing.T) {
	cfg := smallConfig(1)
	if _, err := NewProxyBackend(cfg, ProxyConfig{}); err == nil {
		t.Fatal("no URLs should fail")
	}
	if _, err := NewProxyBackend(cfg, ProxyConfig{URLs: []string{"a", " "}}); err == nil {
		t.Fatal("a blank replica URL should fail")
	}
	if _, err := NewProxyBackend(cfg, ProxyConfig{URLs: []string{"a"}, HedgeAfter: -time.Second}); err == nil {
		t.Fatal("negative HedgeAfter should fail")
	}
	if _, err := NewProxyBackend(cfg, ProxyConfig{URLs: []string{"a"}, MaxRetries: -1}); err == nil {
		t.Fatal("negative MaxRetries should fail")
	}
}

// TestShardServerEndpoints exercises the RPC surface directly: health
// identity, the reach endpoint, and its rejection paths (malformed,
// oversized or old-build bodies, unknown interest, wrong method, removed
// endpoints).
func TestShardServerEndpoints(t *testing.T) {
	cfg := smallConfig(1)
	b, info, err := NewReplicaBackend(cfg)
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
	if health.Status != "ok" || health.TotalPopulation != cfg.Population.Population ||
		health.CatalogSize != cfg.Population.CatalogSize || health.World != worldDigest(cfg) {
		t.Fatalf("health identity wrong: %+v", health)
	}

	var demo, union float64
	f := randomFilter(rng.New(9))
	clauses := [][]interest.ID{{1, 2}, {3}}
	postShares(t, ts.URL+shardPathReach, shardShareRequest{Filter: &f, Clauses: clauses}, &demo, &union)
	if wantD, wantU, _ := b.ReachShares(context.Background(), f, clauses); demo != wantD || union != wantU {
		t.Fatalf("ReachShares over RPC = (%v, %v), local (%v, %v)", demo, union, wantD, wantU)
	}

	body := func(req shardShareRequest) string { return string(req.encode()) }
	oneClause := body(shardShareRequest{Clauses: [][]interest.ID{{1}}})
	// A valid request of exactly maxShareBody bytes: flag, one clause, then
	// that clause's 3-byte count and one byte per ID.
	atLimit := body(shardShareRequest{Clauses: [][]interest.ID{make([]interest.ID, maxShareBody-5)}})
	if len(atLimit) != maxShareBody {
		t.Fatalf("at-limit body is %d bytes, want %d", len(atLimit), maxShareBody)
	}
	type rejection struct {
		name, method, path, body string
		wantStatus               int
	}
	cases := []rejection{
		{"empty body", http.MethodPost, shardPathReach, "", http.StatusBadRequest},
		{"truncated body", http.MethodPost, shardPathReach, body(shardShareRequest{Filter: &f, Clauses: clauses})[:5], http.StatusBadRequest},
		{"bad filter flag", http.MethodPost, shardPathReach, "\x02" + oneClause[1:], http.StatusBadRequest},
		{"trailing value", http.MethodPost, shardPathReach, oneClause + oneClause, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, shardPathReach, oneClause + "trailing", http.StatusBadRequest},
		// The previous encoding ended every body with a conjunction ID list,
		// empty on a reach request.
		{"previous encoding", http.MethodPost, shardPathReach, body(shardShareRequest{Filter: &f, Clauses: clauses}) + "\x00", http.StatusBadRequest},
		{"count beyond the body", http.MethodPost, shardPathReach, "\x00\xff\xff\xff\xff\x0f", http.StatusBadRequest},
		{"id above MaxUint32", http.MethodPost, shardPathReach, "\x00\x01\x01\x80\x80\x80\x80\x10", http.StatusBadRequest},
		{"unknown interest", http.MethodPost, shardPathReach, body(shardShareRequest{Clauses: [][]interest.ID{{999999}}}), http.StatusBadRequest},
		// A valid request cut at the limit must not be answered: the body
		// goes on past it.
		{"body over 1 MiB", http.MethodPost, shardPathReach, atLimit + "\x00", http.StatusBadRequest},
		// An old build's JSON request is refused, never read as a query.
		{"JSON union request", http.MethodPost, shardPathReach, `{"clauses":[[1]]}`, http.StatusBadRequest},
		{"JSON reach request", http.MethodPost, shardPathReach, `{"filter":{"Countries":["US"]},"clauses":[[1]]}`, http.StatusBadRequest},
		{"wrong method", http.MethodGet, shardPathReach, "", http.StatusMethodNotAllowed},
		{"health wrong method", http.MethodPost, shardPathHealth, "", http.StatusMethodNotAllowed},
	}
	// The single-share endpoints are gone: a request to one is a 404.
	for _, kind := range []string{"demo", "union", "conjunction"} {
		cases = append(cases, rejection{kind + " endpoint", http.MethodPost, "/shard/v1/" + kind + "share", oneClause, http.StatusNotFound})
	}
	for _, tc := range cases {
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
	b, info, err := NewReplicaBackend(cfg)
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
		Jitter: zeroJitter,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	want := unionShare(t, b, [][]interest.ID{{1}})
	if got := unionShare(t, proxy, [][]interest.ID{{1}}); got != want {
		t.Fatalf("share after retry = %v, want %v", got, want)
	}
	if len(slept) != 1 || slept[0] != time.Millisecond {
		t.Fatalf("expected one 1ms backoff sleep, got %v", slept)
	}
	if proxy.HealthStats().Down != 0 {
		t.Fatal("a retried-through transient should not mark the replica down")
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

// postShares posts req's binary body to url and decodes the answer's shares
// into out.
func postShares(t *testing.T, url string, req shardShareRequest, out ...*float64) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(req.encode()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	if err := decodeShares(data, out...); err != nil {
		t.Fatal(err)
	}
}
