package loadgen

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanotarget/internal/adsapi"
	"nanotarget/internal/interest"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

func testWorld(t *testing.T) worldcfg.Config {
	t.Helper()
	cfg := worldcfg.Default()
	cfg.Population.Seed = 1
	cfg.Population.CatalogSize = 300
	cfg.Population.Population = 1_000_000
	cfg.Population.ActivityGrid = 32
	return cfg
}

func testServer(t *testing.T, cfg worldcfg.Config, admit serving.AdmissionConfig) *httptest.Server {
	t.Helper()
	backend, err := serving.NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := adsapi.NewServer(adsapi.ServerConfig{Backend: backend, Era: adsapi.Era2017})
	if err != nil {
		t.Fatal(err)
	}
	handler := http.Handler(srv)
	if admit.Rate > 0 {
		handler = serving.NewAdmission(admit, srv)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts
}

// TestRunEndToEnd replays a small permuted-probe workload against a real
// adsapi stack and checks every request is answered and measured.
func TestRunEndToEnd(t *testing.T) {
	cfg := testWorld(t)
	ts := testServer(t, cfg, serving.AdmissionConfig{})
	res, err := Run(context.Background(), Config{
		BaseURL:          ts.URL,
		Accounts:         6,
		ProbesPerAccount: 4,
		Interests:        5,
		CatalogSize:      cfg.Population.CatalogSize,
		Concurrency:      4,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 24 {
		t.Fatalf("Requests = %d, want 24", res.Requests)
	}
	if res.OK != 24 || res.Errors != 0 || res.Rejected != 0 || res.RateLimited != 0 {
		t.Fatalf("unexpected outcome split: %+v", res)
	}
	if res.Throughput <= 0 || res.P50Ms <= 0 || res.P95Ms < res.P50Ms || res.P99Ms < res.P95Ms {
		t.Fatalf("implausible measurements: %+v", res)
	}
}

// TestRunCountsAdmissionRejections drives more probes per account than the
// admission bucket holds; the overflow must be classified as Rejected, not
// as errors.
func TestRunCountsAdmissionRejections(t *testing.T) {
	cfg := testWorld(t)
	// A nearly frozen refill: each account's bucket holds 2 tokens.
	ts := testServer(t, cfg, serving.AdmissionConfig{Rate: 0.001, Burst: 2})
	res, err := Run(context.Background(), Config{
		BaseURL:          ts.URL,
		Accounts:         4,
		ProbesPerAccount: 6,
		Interests:        5,
		CatalogSize:      cfg.Population.CatalogSize,
		Concurrency:      2,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 4*2 {
		t.Fatalf("OK = %d, want 8 (burst 2 per account)", res.OK)
	}
	if res.Rejected != 4*4 {
		t.Fatalf("Rejected = %d, want 16", res.Rejected)
	}
	if res.Errors != 0 {
		t.Fatalf("Errors = %d: 429s must not count as errors", res.Errors)
	}
}

// TestWorkloadDeterminism pins the permuted-probe construction: the same
// seed yields the same URLs (account sets and permutations), and re-probes
// of one account are permutations of one fixed set.
func TestWorkloadDeterminism(t *testing.T) {
	cfg := Config{Accounts: 3, ProbesPerAccount: 4, Interests: 6, CatalogSize: 100, Seed: 5, BaseURL: "http://x"}
	cfg = cfg.withDefaults()
	a := probeURLs(cfg, accountSets(cfg))
	b := probeURLs(cfg, accountSets(cfg))
	if len(a) != 12 {
		t.Fatalf("got %d URLs, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload not deterministic at request %d:\n%s\n%s", i, a[i], b[i])
		}
	}
	sets := accountSets(cfg)
	for acct, set := range sets {
		if len(set) != 6 {
			t.Fatalf("account %d set size %d", acct, len(set))
		}
		seen := map[interest.ID]bool{}
		for _, id := range set {
			if seen[id] {
				t.Fatalf("account %d drew duplicate interest %d", acct, id)
			}
			seen[id] = true
		}
	}
	same := len(sets[0]) == len(sets[1])
	for i := 0; same && i < len(sets[0]); i++ {
		same = sets[0][i] == sets[1][i]
	}
	if same {
		t.Fatal("distinct accounts drew identical interest sets")
	}
}

// TestRunQuantilesExcludeUnansweredRequests is the quantile bugfix's
// regression test: requests that never received a response (here, half the
// load faulted by a FlakyTransport before reaching the wire) must not
// contribute zero-latency samples. Against a deliberately slow handler the
// old behavior dragged p50 to ~0; the fix computes quantiles over answered
// requests only, so every percentile sits at or above the handler's floor.
func TestRunQuantilesExcludeUnansweredRequests(t *testing.T) {
	const floor = 20 * time.Millisecond
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(floor)
		w.Write([]byte(`{"data": {"users": 20, "estimate_ready": true}}`))
	}))
	defer slow.Close()

	flaky := &FlakyTransport{FailEvery: 2} // drop every 2nd request instantly
	res, err := Run(context.Background(), Config{
		BaseURL:          slow.URL,
		Accounts:         4,
		ProbesPerAccount: 4,
		Interests:        3,
		CatalogSize:      300,
		Concurrency:      4,
		Seed:             3,
		Client:           &http.Client{Transport: flaky},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 16 {
		t.Fatalf("Requests = %d, want 16", res.Requests)
	}
	if res.Errors != 8 || res.OK != 8 {
		t.Fatalf("expected 8 faulted / 8 answered, got %+v", res)
	}
	if flaky.Failed() != 8 {
		t.Fatalf("transport faulted %d, want 8", flaky.Failed())
	}
	floorMs := float64(floor) / float64(time.Millisecond)
	for name, q := range map[string]float64{"p50": res.P50Ms, "p95": res.P95Ms, "p99": res.P99Ms} {
		if q < floorMs {
			t.Fatalf("%s = %.2fms below the %.0fms handler floor — unanswered requests polluted the quantiles (%+v)",
				name, q, floorMs, res)
		}
	}
}

// TestFlakyTransportPred covers the predicate mode: only matching requests
// fault.
func TestFlakyTransportPred(t *testing.T) {
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ok.Close()
	tr := &FlakyTransport{FailPred: func(r *http.Request) bool {
		return strings.Contains(r.URL.Path, "act_2")
	}}
	client := &http.Client{Transport: tr}
	if _, err := client.Get(ok.URL + "/v9.0/act_1/reachestimate"); err != nil {
		t.Fatalf("unmatched request faulted: %v", err)
	}
	if _, err := client.Get(ok.URL + "/v9.0/act_2/reachestimate"); err == nil {
		t.Fatal("matched request not faulted")
	}
	if tr.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", tr.Failed())
	}
}

// TestRunCountsDegradedResponses: 200s stamped "degraded": true (the proxy's
// renormalize mode) are counted OK and tallied in Result.Degraded.
func TestRunCountsDegradedResponses(t *testing.T) {
	degraded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"data": {"users": 20, "estimate_ready": true}, "degraded": true}`))
	}))
	defer degraded.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:          degraded.URL,
		Accounts:         2,
		ProbesPerAccount: 3,
		Interests:        3,
		CatalogSize:      300,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 6 || res.Degraded != 6 || res.Errors != 0 {
		t.Fatalf("degraded tally wrong: %+v", res)
	}
}

// TestFetchServingHealth covers the health-scrape helper against both kinds
// of backend: a shard proxy (real stats, replica rows, 405 on non-GET) and a
// single-process LocalBackend (the endpoint 404s and the helper reports
// "no serving health" as nil, nil).
func TestFetchServingHealth(t *testing.T) {
	cfg := testWorld(t)

	// LocalBackend: no proxy, no stats.
	local := testServer(t, cfg, serving.AdmissionConfig{})
	st, err := FetchServingHealth(context.Background(), nil, local.URL, "")
	if err != nil {
		t.Fatalf("FetchServingHealth against LocalBackend: %v", err)
	}
	if st != nil {
		t.Fatalf("LocalBackend reported serving health: %+v", st)
	}

	// Proxy over a replicated shard 0: stats carry one row per replica.
	shardOf := []int{0, 0, 1} // urls[0] and urls[1] replicate shard 0; urls[2] is shard 1
	urls := make([]string, len(shardOf))
	for i, shard := range shardOf {
		b, info, err := serving.NewShardBackend(cfg, shard, 2)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serving.NewShardServer(b, info)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	proxy, err := serving.NewProxyBackend(cfg, serving.ProxyConfig{
		Shards: [][]string{{urls[0], urls[1]}, {urls[2]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	api, err := adsapi.NewServer(adsapi.ServerConfig{Backend: proxy, Era: adsapi.Era2017})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)

	st, err = FetchServingHealth(context.Background(), nil, ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("proxy backend reported no serving health")
	}
	if st.Up != 3 || st.Down != 0 || len(st.Shards) != 3 {
		t.Fatalf("unexpected health: %+v", st)
	}
	if st.Shards[0].Shard != 0 || st.Shards[0].Replica != 0 ||
		st.Shards[1].Shard != 0 || st.Shards[1].Replica != 1 ||
		st.Shards[2].Shard != 1 || st.Shards[2].Replica != 0 {
		t.Fatalf("replica rows out of order: %+v", st.Shards)
	}

	// Non-GET is rejected by the endpoint, and the helper reports it.
	resp, err := http.Post(ts.URL+"/"+adsapi.APIVersion+"/serving/health", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /serving/health: HTTP %d, want 405", resp.StatusCode)
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestRunReusesConnections: Run's default client keeps one idle connection
// per worker, so a flood opens at most Concurrency connections, counted at
// the server's listener. The server answers each round of Concurrency
// requests together, with empty bodies, which hands every connection back
// to the client's pool at once: the burst a smaller pool (http.DefaultTransport
// keeps 2 per host) answers by closing connections and re-dialing them.
// Holding each round until it is complete also makes every worker dial once
// up front, so the bound is exact.
func TestRunReusesConnections(t *testing.T) {
	const concurrency = 64
	var mu sync.Mutex
	arrived, round := 0, make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		mine := round
		if arrived++; arrived == concurrency {
			close(round)
			arrived, round = 0, make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-mine:
		case <-time.After(10 * time.Second):
		}
	}))
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:          ts.URL,
		Accounts:         2 * concurrency,
		ProbesPerAccount: 10,
		Interests:        5,
		CatalogSize:      300,
		Concurrency:      concurrency,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != res.Requests || res.Requests != 20*concurrency {
		t.Fatalf("unexpected outcome split: %+v", res)
	}
	if n := ln.accepted.Load(); n < 1 || n > concurrency {
		t.Fatalf("flood of %d requests at concurrency %d opened %d connections, want 1..%d",
			res.Requests, concurrency, n, concurrency)
	}
}
