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

// proxyWorld is the e2e test world: small enough to build its replicas in
// test time.
func proxyWorld() worldcfg.Config {
	cfg := worldcfg.Default()
	cfg.Population.Seed = 7
	cfg.Population.CatalogSize = 2000
	cfg.Population.Population = 5_000_001
	cfg.Population.ActivityGrid = 64
	return cfg
}

// replicaProcess is a replica on an httptest server whose Close is a
// process death. httptest's Close leaves hijacked connections open, and the
// proxy's upgraded reach connections are hijacked, so Close closes those
// too.
type replicaProcess struct {
	*httptest.Server
	mu       sync.Mutex
	hijacked []net.Conn
}

func (s *replicaProcess) Close() {
	s.Server.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.hijacked {
		c.Close()
	}
	s.hijacked = nil
}

// startReplicas boots two whole-world replica RPC servers of cfg on
// httptest servers and returns their base URLs and servers.
func startReplicas(t *testing.T, cfg worldcfg.Config) ([]string, []*replicaProcess) {
	t.Helper()
	var replicas []*replicaProcess
	urls := make([]string, 2)
	for i := range urls {
		b, info, err := serving.NewReplicaBackend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serving.NewShardServer(b, info)
		if err != nil {
			t.Fatal(err)
		}
		ts := &replicaProcess{Server: httptest.NewUnstartedServer(srv)}
		ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
			if state == http.StateHijacked {
				ts.mu.Lock()
				ts.hijacked = append(ts.hijacked, c)
				ts.mu.Unlock()
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		replicas = append(replicas, ts)
		urls[i] = ts.URL
	}
	return urls, replicas
}

// startAPI mounts the Marketing API server on a proxy over cfg's world and
// returns the API base URL.
func startAPI(t *testing.T, cfg worldcfg.Config, pc serving.ProxyConfig) (string, *serving.ProxyBackend) {
	t.Helper()
	proxy, err := serving.NewProxyBackend(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	return serveAPI(t, proxy), proxy
}

// serveAPI mounts the Marketing API server on backend and returns its base
// URL.
func serveAPI(t *testing.T, backend serving.ReachBackend) string {
	t.Helper()
	api, err := NewServer(ServerConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts.URL
}

// startProxyAPI boots two whole-world replicas of the test world, fronts
// them with a ProxyBackend and mounts the Marketing API server on it. It
// returns the API base URL and the replicas in proxy order.
func startProxyAPI(t *testing.T) (string, []*replicaProcess) {
	t.Helper()
	cfg := proxyWorld()
	urls, replicas := startReplicas(t, cfg)
	base, _ := startAPI(t, cfg, serving.ProxyConfig{
		URLs: urls, MaxRetries: 1, RetryBase: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})
	return base, replicas
}

// TestServerOverProxyRenormalize: the API keeps answering through a proxy
// that lost one of its two replicas — the healthy body, byte for byte,
// since every replica holds the whole world's shares — and a reach
// response is only ever {"data": …}: nothing marks a failover.
func TestServerOverProxyRenormalize(t *testing.T) {
	base, replicas := startProxyAPI(t)
	spec := ConjunctionSpec(es(), nil)
	healthy := fetchReachBody(t, base, spec)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(healthy, &fields); err != nil || len(fields) != 1 || fields["data"] == nil {
		t.Fatalf("reach response %s: want exactly the data field (err %v)", healthy, err)
	}

	replicas[1].Close()
	// Replica 1's death surfaces on its first turn, within one estimate per
	// replica; that estimate fails over to replica 0.
	for k := 0; k < 2; k++ {
		if got := fetchReachBody(t, base, spec); string(got) != string(healthy) {
			t.Fatalf("estimate %d with replica 1 down = %s, want the healthy %s", k, got, healthy)
		}
	}
}

// TestServerOverProxyFail: once every replica is down there is nothing to
// fail over to, and API requests turn into 503s whose JSON body names every
// replica's URL.
func TestServerOverProxyFail(t *testing.T) {
	base, replicas := startProxyAPI(t)
	spec := ConjunctionSpec(es(), nil)
	if status, body := rawReach(t, base, spec); status != http.StatusOK {
		t.Fatalf("healthy topology: HTTP %d (body %s)", status, body)
	}

	for _, r := range replicas {
		r.Close()
	}
	for k := 0; k < 2; k++ {
		status, body := rawReach(t, base, spec)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("request %d with every replica down: HTTP %d, want 503 (body %s)", k, status, body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Fatalf("503 body is not an error envelope: %s", body)
		}
		if env.Error.Code != CodeServiceUnavailable {
			t.Fatalf("503 error code %d, want %d", env.Error.Code, CodeServiceUnavailable)
		}
		for _, r := range replicas {
			if !strings.Contains(env.Error.Message, r.URL) {
				t.Fatalf("503 body %q does not name the dead replica %s", env.Error.Message, r.URL)
			}
		}
	}
}

// slowShard is an http.RoundTripper that delays every request to one
// replica by delay before delegating. The delay honours the request
// context: an RPC whose deadline ends mid-delay fails with the context
// error at once.
type slowShard struct {
	base   http.RoundTripper
	prefix string // the slow replica's base URL plus "/"
	delay  time.Duration

	dataRPCs atomic.Int64 // requests to the slow replica other than health probes
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

// TestServerOverProxySlowShard is the slow-replica drill: every RPC to
// replica 0 takes 400 ms against the proxy's 100 ms RPC timeout. The
// per-RPC timeout must cut each replica-0 RPC short, the breaker must trip
// after two failed estimates, and failover must answer every estimate of a
// flood from replica 1 — 200s with the single world's reach, none past a 5 s
// deadline. Once a probe finds the slow replica alive again, the open
// breaker must keep estimates off its wire.
func TestServerOverProxySlowShard(t *testing.T) {
	cfg := proxyWorld()
	urls, _ := startReplicas(t, cfg)
	slow := &slowShard{base: serving.NewShardTransport(), prefix: urls[0] + "/", delay: 400 * time.Millisecond}
	base, proxy := startAPI(t, cfg, serving.ProxyConfig{
		URLs:    urls,
		Timeout: 100 * time.Millisecond,
		// The open timeout outlasts the drill, so the breaker cannot go
		// half-open and send a trial RPC mid-test.
		Breaker: serving.BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Minute},
		Client:  &http.Client{Transport: slow},
	})
	local, err := serving.NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := serveAPI(t, local)
	// reach fetches one reach estimate from an API under a 5 s deadline;
	// anything but a 200 fails the test.
	reach := func(api string, ids ...interest.ID) int64 {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		u := api + "/" + APIVersion + "/act_1/reachestimate?targeting_spec=" +
			url.QueryEscape(string(marshalJSON(ConjunctionSpec(es(), ids))))
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			t.Error(err)
			return -1
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("estimate %v: %v", ids, err)
			return -1
		}
		defer resp.Body.Close()
		var body reachResponse
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
			t.Errorf("estimate %v: HTTP %d, want a 200 reach estimate", ids, resp.StatusCode)
		}
		return body.Data.Users
	}
	// exact fetches one estimate through the proxy, checks it against the
	// single world's, and reports whether it sent an RPC to the slow
	// replica.
	exact := func(ids ...interest.ID) (touchedSlow bool) {
		before := slow.dataRPCs.Load()
		if got, want := reach(base, ids...), reach(ref, ids...); got != want {
			t.Errorf("estimate %v through the proxy = %d, single world %d", ids, got, want)
		}
		return slow.dataRPCs.Load() != before
	}

	// Estimates alternate between the replicas. Estimates 0 and 2 are
	// replica 0's: each loses it to the RPC timeout and fails over to
	// replica 1. Before each later estimate a probe finds the slow replica
	// alive and marks it up again, as the health loop would, so estimate 1,
	// replica 1's, never touches it.
	for i := 0; i < 3; i++ {
		if i > 0 {
			proxy.ProbeNow(context.Background())
			if st := proxy.HealthStats(); st.Down != 0 {
				t.Fatalf("probe did not mark the slow replica up again: %+v", st)
			}
		}
		if want := i%2 == 0; exact() != want {
			t.Fatalf("estimate %d: touched the slow replica %v, want %v", i, !want, want)
		}
	}
	if cut, rpcs := slow.cut.Load(), slow.dataRPCs.Load(); rpcs == 0 || cut != rpcs {
		t.Fatalf("the 100ms RPC timeout cut %d of %d replica-0 RPCs short, want all", cut, rpcs)
	}
	if got := proxy.HealthStats().Shards[0].Breaker; got != "open" {
		t.Fatalf("replica 0 breaker %q after two failed estimates, want open", got)
	}

	// The flood: every estimate answered exactly, from the healthy replica.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < 4; p++ {
				exact(interest.ID(1+w), interest.ID(10+p))
			}
		}(w)
	}
	wg.Wait()

	// The replica is up again but its breaker is open: estimates — one per
	// replica, so one is replica 0's turn — fast-fail it without an RPC.
	proxy.ProbeNow(context.Background())
	before := slow.dataRPCs.Load()
	for i := 0; i < 2; i++ {
		exact()
	}
	if after := slow.dataRPCs.Load(); after != before {
		t.Fatalf("open breaker let %d RPCs reach the slow replica", after-before)
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
