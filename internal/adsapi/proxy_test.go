package adsapi

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

// proxyWorld is the e2e test world: small enough to build four shard models
// in test time.
func proxyWorld() worldcfg.Config {
	cfg := worldcfg.Default()
	cfg.Population.Seed = 7
	cfg.Population.CatalogSize = 2000
	cfg.Population.Population = 5_000_001
	cfg.Population.ActivityGrid = 64
	return cfg
}

// shardProcess is a shard on an httptest server whose Close is a process
// death. httptest's Close leaves hijacked connections open, and the proxy's
// upgraded reach connections are hijacked, so Close closes those too.
type shardProcess struct {
	*httptest.Server
	mu       sync.Mutex
	hijacked []net.Conn
}

func (s *shardProcess) Close() {
	s.Server.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.hijacked {
		c.Close()
	}
	s.hijacked = nil
}

// startShards boots the 2-shard RPC topology of cfg on httptest servers
// and returns their base URLs and servers in shard order.
func startShards(t *testing.T, cfg worldcfg.Config) ([]string, []*shardProcess) {
	t.Helper()
	var shardServers []*shardProcess
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		b, info, err := serving.NewShardBackend(cfg, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serving.NewShardServer(b, info)
		if err != nil {
			t.Fatal(err)
		}
		ts := &shardProcess{Server: httptest.NewUnstartedServer(srv)}
		ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
			if state == http.StateHijacked {
				ts.mu.Lock()
				ts.hijacked = append(ts.hijacked, c)
				ts.mu.Unlock()
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		shardServers = append(shardServers, ts)
		urls[i] = ts.URL
	}
	return urls, shardServers
}

// startAPI mounts the Marketing API server on a proxy over cfg's world and
// returns the API base URL.
func startAPI(t *testing.T, cfg worldcfg.Config, pc serving.ProxyConfig) (string, *serving.ProxyBackend) {
	t.Helper()
	proxy, err := serving.NewProxyBackend(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	api, err := NewServer(ServerConfig{Backend: proxy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts.URL, proxy
}

// startProxyAPI boots a 2-shard RPC topology, fronts it with a ProxyBackend
// under the given policy, and mounts the Marketing API server on it. It
// returns the API base URL and the second shard's httptest server (the one
// the tests kill).
func startProxyAPI(t *testing.T, policy serving.Policy) (string, *shardProcess, *serving.ProxyBackend) {
	t.Helper()
	cfg := proxyWorld()
	urls, shardServers := startShards(t, cfg)
	base, proxy := startAPI(t, cfg, serving.ProxyConfig{
		URLs: urls, Policy: policy, MaxRetries: 1, RetryBase: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})
	return base, shardServers[1], proxy
}

// TestServerOverProxyRenormalize: the API keeps answering through a proxy
// that lost a shard under the renormalize policy — the healthy answer, since
// every shard holds the whole world's shares — and stamps those responses
// "degraded": true (healthy responses omit the field).
func TestServerOverProxyRenormalize(t *testing.T) {
	base, shard1, proxy := startProxyAPI(t, serving.PolicyRenormalize)
	c, err := NewClient(ClientConfig{BaseURL: base, MaxRetries: 1,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}

	spec := ConjunctionSpec(es(), nil)
	healthy, err := c.ReachEstimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if healthy <= 0 {
		t.Fatalf("healthy reach %d", healthy)
	}
	raw := fetchReachBody(t, base, spec)
	if strings.Contains(string(raw), `"degraded"`) {
		t.Fatalf("healthy response carries a degraded stamp: %s", raw)
	}

	shard1.Close()
	// Shard 1's death surfaces on its first turn, within one estimate per
	// shard; the estimate fails over to shard 0.
	for k := 0; k < 2; k++ {
		degraded, err := c.ReachEstimate(context.Background(), spec)
		if err != nil {
			t.Fatalf("renormalize proxy stopped answering with one shard down: %v", err)
		}
		if degraded != healthy {
			t.Fatalf("estimate %d with shard 1 down = %d, want the healthy %d", k, degraded, healthy)
		}
	}
	if !proxy.Degraded() {
		t.Fatal("proxy not degraded after losing a shard")
	}
	raw = fetchReachBody(t, base, spec)
	var resp struct {
		Data     ReachEstimate `json:"data"`
		Degraded bool          `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil || !resp.Degraded {
		t.Fatalf("degraded response not stamped: %s (err %v)", raw, err)
	}
	if resp.Data.Users != healthy {
		t.Fatalf("stamped response reach %d, want the healthy %d", resp.Data.Users, healthy)
	}
}

// TestServerOverProxyFail: under the fail policy a down shard turns API
// requests into 503s whose JSON body names the dead shard's URL — from the
// first request routed to it, which is one of the next two, and on every
// request after.
func TestServerOverProxyFail(t *testing.T) {
	base, shard1, _ := startProxyAPI(t, serving.PolicyFail)
	spec := ConjunctionSpec(es(), nil)

	// Healthy: normal service.
	if status, _ := rawReach(t, base, spec); status != http.StatusOK {
		t.Fatalf("healthy topology: HTTP %d", status)
	}

	shard1.Close()
	status, body := rawReach(t, base, spec)
	if status == http.StatusOK {
		// Shard 0's turn: served. The next request is shard 1's.
		status, body = rawReach(t, base, spec)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("fail policy with a dead shard: HTTP %d, want 503 (body %s)", status, body)
	}
	for k := 0; k < 2; k++ {
		if again, _ := rawReach(t, base, spec); again != http.StatusServiceUnavailable {
			t.Fatalf("request %d after the 503: HTTP %d, want 503 until a probe revives the shard", k, again)
		}
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("503 body is not an error envelope: %s", body)
	}
	if env.Error.Code != CodeServiceUnavailable {
		t.Fatalf("503 error code %d, want %d", env.Error.Code, CodeServiceUnavailable)
	}
	if !strings.Contains(env.Error.Message, shard1.URL) {
		t.Fatalf("503 body %q does not name the dead shard %s", env.Error.Message, shard1.URL)
	}
}

// slowShard is an http.RoundTripper that delays every request to one shard
// by delay before delegating. The delay honours the request context: an RPC
// whose deadline ends mid-delay fails with the context error at once.
type slowShard struct {
	base   http.RoundTripper
	prefix string // the slow shard's base URL plus "/"
	delay  time.Duration

	dataRPCs atomic.Int64 // requests to the slow shard other than health probes
	cut      atomic.Int64 // delays ended early by the request context
}

func (s *slowShard) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(r.URL.String(), s.prefix) {
		return s.base.RoundTrip(r)
	}
	if !strings.HasSuffix(r.URL.Path, "/health") {
		s.dataRPCs.Add(1)
	}
	timer := time.NewTimer(s.delay)
	defer timer.Stop()
	select {
	case <-r.Context().Done():
		s.cut.Add(1)
		return nil, r.Context().Err()
	case <-timer.C:
	}
	return s.base.RoundTrip(r)
}

// TestServerOverProxySlowShard is the slow-shard drill: every RPC to shard 0
// takes 400 ms against the proxy's 100 ms RPC timeout. The per-RPC timeout
// must cut each shard-0 RPC short, the breaker must trip after two failed
// estimates, and the renormalize policy must answer every estimate of a
// flood from shard 1 — 200s stamped degraded, none past a 5 s deadline.
// Once a probe finds the slow shard alive again, the open breaker must keep
// estimates off its wire, and responses stay stamped: a shard whose breaker
// is open is down.
func TestServerOverProxySlowShard(t *testing.T) {
	cfg := proxyWorld()
	urls, _ := startShards(t, cfg)
	slow := &slowShard{base: serving.NewShardTransport(), prefix: urls[0] + "/", delay: 400 * time.Millisecond}
	base, proxy := startAPI(t, cfg, serving.ProxyConfig{
		URLs:    urls,
		Timeout: 100 * time.Millisecond,
		Policy:  serving.PolicyRenormalize,
		// The open timeout outlasts the drill, so the breaker cannot go
		// half-open and send a trial RPC mid-test.
		Breaker: serving.BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Minute},
		Client:  &http.Client{Transport: slow},
	})
	// estimate fetches one reach estimate under a 5 s deadline and reports
	// whether it was stamped degraded; anything but a 200 fails the test.
	estimate := func(ids ...interest.ID) (degraded bool) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		u := base + "/" + APIVersion + "/act_1/reachestimate?targeting_spec=" +
			url.QueryEscape(string(marshalJSON(ConjunctionSpec(es(), ids))))
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			t.Error(err)
			return false
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("estimate %v: %v", ids, err)
			return false
		}
		defer resp.Body.Close()
		var body struct {
			Degraded bool `json:"degraded"`
		}
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
			t.Errorf("estimate %v: HTTP %d, want a 200 reach estimate", ids, resp.StatusCode)
		}
		return body.Degraded
	}
	breaker := func() string {
		for _, sh := range proxy.HealthStats().Shards {
			if sh.Shard == 0 {
				return sh.Breaker
			}
		}
		return ""
	}

	// Estimates alternate between the shards. Estimates 0 and 2 are shard
	// 0's: each loses it to the RPC timeout, fails over to shard 1 and is
	// stamped. Before each later estimate a probe finds the slow shard
	// alive and marks it up again, as the health loop would, so estimate 1,
	// shard 1's, is served unstamped.
	for i := 0; i < 3; i++ {
		if i > 0 {
			proxy.ProbeNow(context.Background())
			if proxy.Degraded() {
				t.Fatal("probe did not mark the slow shard up again")
			}
		}
		if want := i%2 == 0; estimate() != want {
			t.Fatalf("estimate %d: degraded stamp %v, want %v", i, !want, want)
		}
	}
	if cut, rpcs := slow.cut.Load(), slow.dataRPCs.Load(); rpcs == 0 || cut != rpcs {
		t.Fatalf("the 100ms RPC timeout cut %d of %d shard-0 RPCs short, want all", cut, rpcs)
	}
	if got := breaker(); got != "open" {
		t.Fatalf("shard 0 breaker %q after two failed estimates, want open", got)
	}

	// The flood: every estimate answered from the healthy shard.
	var wg sync.WaitGroup
	var undegraded atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < 4; p++ {
				if !estimate(interest.ID(1+w), interest.ID(10+p)) {
					undegraded.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := undegraded.Load(); n > 0 {
		t.Fatalf("%d of 32 flood estimates failed or were not stamped degraded", n)
	}

	// The shard is up again but its breaker is open: estimates — one per
	// shard, so one is shard 0's turn — fast-fail it without an RPC, and
	// are stamped degraded, since a shard behind an open breaker is down.
	proxy.ProbeNow(context.Background())
	before := slow.dataRPCs.Load()
	for i := 0; i < 2; i++ {
		if !estimate() {
			t.Fatalf("estimate %d with shard 0's breaker open was not stamped degraded", i)
		}
	}
	if after := slow.dataRPCs.Load(); after != before {
		t.Fatalf("open breaker let %d RPCs reach the slow shard", after-before)
	}
}

// rawReach fetches /reachestimate without the retrying client.
func rawReach(t *testing.T, base string, spec TargetingSpec) (int, []byte) {
	t.Helper()
	u := base + "/" + APIVersion + "/act_1/reachestimate?targeting_spec=" +
		string(marshalJSON(spec))
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func fetchReachBody(t *testing.T, base string, spec TargetingSpec) []byte {
	t.Helper()
	status, body := rawReach(t, base, spec)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	return body
}

// TestClientRetriesAdmission429 is the satellite bugfix's regression test:
// the serving tier's admission 429 (body code 429, type AdmissionThrottled —
// NOT FB error 17) must be retried, sleeping exactly the advertised
// Retry-After seconds.
func TestClientRetriesAdmission429(t *testing.T) {
	m := testModel(t)
	real, err := NewServer(ServerConfig{Backend: localBackend(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	throttles := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if throttles > 0 {
			throttles--
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error": {"message": "Too many requests", "type": "AdmissionThrottled", "code": 429, "retry_after_seconds": 3}}`))
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var slept []time.Duration
	c, err := NewClient(ClientConfig{
		BaseURL: srv.URL, MaxRetries: 4, RetryBase: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reach, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), nil))
	if err != nil {
		t.Fatalf("client treated the admission 429 as permanent: %v", err)
	}
	if reach <= 0 {
		t.Fatalf("reach %d", reach)
	}
	if len(slept) != 2 || slept[0] != 3*time.Second || slept[1] != 3*time.Second {
		t.Fatalf("client slept %v, want two 3s waits honoring Retry-After", slept)
	}
}

// TestClientBacksOff429WithoutRetryAfter: a 429 with no Retry-After header
// falls back to the exponential schedule.
func TestClientBacksOff429WithoutRetryAfter(t *testing.T) {
	throttles := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if throttles > 0 {
			throttles--
			http.Error(w, `{"error": {"message": "slow down", "type": "AdmissionThrottled", "code": 429}}`,
				http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"data": {"users": 123, "estimate_ready": true}}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c, err := NewClient(ClientConfig{
		BaseURL: srv.URL, MaxRetries: 4, RetryBase: 10 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReachEstimate(context.Background(), ConjunctionSpec(es(), nil)); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoff %v, want %v", slept, want)
	}
}

// TestClientSurvivesAdmissionEndToEnd drives the real admission middleware
// with a shared fake clock: the client's Sleep advances the admission
// tier's time, so honoring the advertised Retry-After is exactly what makes
// the retry admissible.
func TestClientSurvivesAdmissionEndToEnd(t *testing.T) {
	m := testModel(t)
	api, err := NewServer(ServerConfig{Backend: localBackend(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	now := time.Unix(1800000000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	admission := serving.NewAdmission(serving.AdmissionConfig{Rate: 0.5, Burst: 1, Now: clock}, api)
	srv := httptest.NewServer(admission)
	defer srv.Close()

	c, err := NewClient(ClientConfig{
		BaseURL: srv.URL, MaxRetries: 3, RetryBase: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			now = now.Add(d)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 1: the first request drains the bucket, the second is
	// admission-throttled and must succeed by sleeping the advertised wait.
	spec := ConjunctionSpec(es(), nil)
	for i := 0; i < 2; i++ {
		if _, err := c.ReachEstimate(context.Background(), spec); err != nil {
			t.Fatalf("request %d failed through admission control: %v", i, err)
		}
	}
	st := admission.Stats()
	if st.Rejected == 0 {
		t.Fatal("the second request was never throttled — the test proved nothing")
	}
	if st.Admitted != 2 {
		t.Fatalf("admitted %d, want 2", st.Admitted)
	}
}
