package serving

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
)

// TestNoBackgroundContextOnRequestPaths is the ISSUE's grep gate: no
// production file in this package may construct a background context — every
// per-request path must thread its CALLER's context, or deadline propagation
// silently dies at that hop. (Construction-time uses live in cmd/ and
// adsapi, where there genuinely is no caller.)
func TestNoBackgroundContextOnRequestPaths(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, needle := range []string{"context.Background(", "context.TODO("} {
			if i := bytes.Index(data, []byte(needle)); i >= 0 {
				line := 1 + bytes.Count(data[:i], []byte("\n"))
				t.Errorf("%s:%d: %s on a serving path — thread the caller's context instead", name, line, needle)
			}
		}
	}
}

// expectCanceled asserts fn panics with *CanceledError and returns it.
func expectCanceled(t *testing.T, fn func()) *CanceledError {
	t.Helper()
	var ce *CanceledError
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("expected a CanceledError panic")
			}
			var ok bool
			ce, ok = rec.(*CanceledError)
			if !ok {
				panic(rec)
			}
		}()
		fn()
	}()
	return ce
}

// hungHandler blocks every request until its caller goes away — the stuck
// shard the cancellation tests scatter into. It drains the body first: the
// net/http server only watches for client disconnect (and cancels
// r.Context()) once the request body has been consumed.
func hungHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
}

// startHungShardTopology is a 2-"shard" topology whose shard 1 never
// answers: shard 0 is a real shard server, shard 1 hangs forever.
func startHungShardTopology(t *testing.T) (*ProxyBackend, func(pc ProxyConfig) *ProxyBackend) {
	t.Helper()
	cfg := smallConfig(1)
	s0, _ := shardHandler(t, cfg, 0, 2)
	real := httptest.NewServer(s0)
	t.Cleanup(real.Close)
	hung := httptest.NewServer(hungHandler())
	t.Cleanup(hung.Close)
	mk := func(pc ProxyConfig) *ProxyBackend {
		return newTestProxy(t, cfg, []string{real.URL, hung.URL}, pc)
	}
	return mk(ProxyConfig{Timeout: 30 * time.Second}), mk
}

// TestProxyCancelAbortsHungFanOut is the ISSUE's cancellation bound: a
// scatter into a topology with one hung shard must abandon the gather within
// the caller's cancellation, not the 30s per-RPC timeout — and the shard
// must NOT be marked down for the caller's impatience.
func TestProxyCancelAbortsHungFanOut(t *testing.T) {
	proxy, _ := startHungShardTopology(t)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()

	start := time.Now()
	ce := expectCanceled(t, func() {
		proxy.UnionShare(ctx, [][]interest.ID{{1}})
	})
	elapsed := time.Since(start)
	if !errors.Is(ce, context.Canceled) {
		t.Fatalf("CanceledError wraps %v, want context.Canceled", ce.Err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to abort the fan-out — the 30s RPC timeout leaked through", elapsed)
	}
	if st := proxy.HealthStats(); st.Down != 0 {
		t.Fatalf("caller cancellation marked a shard down: %+v", st)
	}
}

// TestProxyDeadlinePanicsDeadlineExceeded: same bound, via an expiring
// deadline instead of an explicit cancel — the recovered error must
// distinguish the two (the HTTP tier maps them to 504 vs 503).
func TestProxyDeadlinePanicsDeadlineExceeded(t *testing.T) {
	proxy, _ := startHungShardTopology(t)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()

	start := time.Now()
	ce := expectCanceled(t, func() {
		proxy.DemoShare(ctx, randomFilter(rng.New(1).Derive(t.Name())))
	})
	if !errors.Is(ce, context.DeadlineExceeded) {
		t.Fatalf("CanceledError wraps %v, want context.DeadlineExceeded", ce.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to abort the fan-out", elapsed)
	}
}

// TestProxyForwardsDeadlineHeader pins the wire contract: every RPC carries
// X-Deadline-Ms with the remaining budget — min(caller deadline, per-RPC
// timeout), never more.
func TestProxyForwardsDeadlineHeader(t *testing.T) {
	cfg := smallConfig(1)
	s0, _ := shardHandler(t, cfg, 0, 1)
	var mu sync.Mutex
	var got []string
	capture := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Get(DeadlineHeader))
		mu.Unlock()
		s0.ServeHTTP(w, r)
	}))
	t.Cleanup(capture.Close)
	proxy := newTestProxy(t, cfg, []string{capture.URL}, ProxyConfig{Timeout: 3 * time.Second})

	// No caller deadline: the per-RPC timeout is the budget.
	proxy.UnionShare(context.Background(), [][]interest.ID{{1}})
	// Caller deadline tighter than the per-RPC timeout: it wins.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	proxy.UnionShare(ctx, [][]interest.ID{{1}})

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("captured %d RPCs, want 2", len(got))
	}
	for i, bound := range []int64{3000, 500} {
		ms, err := strconv.ParseInt(got[i], 10, 64)
		if err != nil {
			t.Fatalf("RPC %d: %s = %q, not an integer", i, DeadlineHeader, got[i])
		}
		if ms < 1 || ms > bound {
			t.Fatalf("RPC %d: forwarded budget %dms outside (0, %d]", i, ms, bound)
		}
	}
}

// TestShardServerDeadlineHeaderValidation: a malformed or non-positive
// X-Deadline-Ms is a caller bug answered 400; a generous valid one serves
// normally.
func TestShardServerDeadlineHeaderValidation(t *testing.T) {
	cfg := smallConfig(1)
	srv, _ := shardHandler(t, cfg, 0, 1)
	body := `{"clauses": [[1]]}`
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"abc", http.StatusBadRequest},
		{"0", http.StatusBadRequest},
		{"-5", http.StatusBadRequest},
		{"60000", http.StatusOK},
	} {
		req := httptest.NewRequest(http.MethodPost, shardPathUnion, strings.NewReader(body))
		req.Header.Set(DeadlineHeader, tc.header)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s=%q: HTTP %d, want %d (%s)", DeadlineHeader, tc.header, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestShardServerAbandonsDeadCaller: a request whose context is already dead
// when the handler reaches the compute step is answered 504 without
// evaluating the share — the cross-process half of deadline propagation.
func TestShardServerAbandonsDeadCaller(t *testing.T) {
	cfg := smallConfig(1)
	srv, _ := shardHandler(t, cfg, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{shardPathUnion, shardPathDemo, shardPathConj, shardPathWarm} {
		body := `{"clauses": [[1]]}`
		if path == shardPathConj {
			body = `{"ids": [1]}`
		}
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("%s with a dead caller: HTTP %d, want 504", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "deadline exhausted before compute") {
			t.Errorf("%s 504 body %q does not explain the abandonment", path, rec.Body.String())
		}
	}
}

// TestProxyTreats504AsPermanent: a shard's 504 means the forwarded deadline
// expired — retrying burns budget the caller no longer has, so the proxy
// must fail the RPC immediately (zero backoff sleeps) and the failure feeds
// the breaker.
func TestProxyTreats504AsPermanent(t *testing.T) {
	cfg := smallConfig(1)
	srv504 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "deadline exhausted before compute: injected", http.StatusGatewayTimeout)
	}))
	t.Cleanup(srv504.Close)

	var slept []time.Duration
	proxy := newTestProxy(t, cfg, []string{srv504.URL}, ProxyConfig{
		MaxRetries: 3,
		Breaker:    BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	expectUnavailable(t, func() {
		proxy.UnionShare(context.Background(), [][]interest.ID{{1}})
	})
	if len(slept) != 0 {
		t.Fatalf("the proxy retried a 504 (%d backoff sleeps) — it must be permanent", len(slept))
	}
	// The spurious 504 (the caller's ctx was live) counted as a data-path
	// failure: with threshold 1 the breaker is now open.
	if br := proxy.HealthStats().Shards[0].Breaker; br != "open" {
		t.Fatalf("breaker after a live-caller 504 is %q, want open", br)
	}
}

// TestStartHealthGoroutineExit is the leak regression for the probe loop:
// StartHealth's goroutine (and its probe workers) must exit on context
// cancel, returning the process to its goroutine baseline.
func TestStartHealthGoroutineExit(t *testing.T) {
	cfg := smallConfig(1)
	urls := startShardTopology(t, cfg, 2)
	// Keep-alives would park persistent-connection goroutines past the
	// cancel and fail the baseline comparison below.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{
		ProbeInterval: 5 * time.Millisecond,
		Client:        client,
	})

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	proxy.StartHealth(ctx)
	waitFor(t, func() bool { return proxy.HealthStats().Rounds >= 3 })
	cancel()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
	if st := proxy.HealthStats(); st.Up != 2 {
		t.Fatalf("probe rounds ran but topology not up: %+v", st)
	}
}

// BenchmarkProxyBreakerFastFail measures the whole point of the breaker: a
// gather over a topology whose dead shard's breaker is OPEN must cost
// microseconds (one live-shard RPC plus a mutex check), not the per-RPC
// timeout the dead shard would otherwise eat. CI gates the reported ns/op at
// <= 1/10 of the 250ms per-RPC timeout configured here.
func BenchmarkProxyBreakerFastFail(b *testing.B) {
	cfg := smallConfig(1)
	s0, info, err := NewShardBackend(cfg, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewShardServer(s0, info)
	if err != nil {
		b.Fatal(err)
	}
	live := httptest.NewServer(srv)
	defer live.Close()

	// The dead shard: a URL nothing listens on. The open breaker means it is
	// never dialed — which is exactly what this benchmark proves.
	dead := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := dead.URL
	dead.Close()

	frozen := time.Unix(1800000000, 0)
	pc := ProxyConfig{
		URLs:    []string{live.URL, deadURL},
		Timeout: 250 * time.Millisecond,
		Policy:  PolicyRenormalize,
		// A frozen clock keeps the breaker open forever (no half-open
		// trials mid-benchmark).
		Breaker: BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour, Now: func() time.Time { return frozen }},
		Now:     func() time.Time { return frozen },
	}
	proxy, err := NewProxyBackend(cfg, pc)
	if err != nil {
		b.Fatal(err)
	}
	// Trip shard 1's breaker the way production would: one data-path failure
	// at threshold 1.
	proxy.breakers[1][0].OnFailure()
	if st := proxy.breakers[1][0].State(); st != BreakerOpen {
		b.Fatalf("breaker not open: %v", st)
	}

	clauses := [][]interest.ID{{1, 2}, {3}}
	ctx := context.Background()
	proxy.UnionShare(ctx, clauses) // warm the live shard's rows/cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proxy.UnionShare(ctx, clauses)
	}
}
