package serving

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
	"nanotarget/internal/population"
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

// TestErrorsAreReturnedNotPanicked is the grep gate for the error contract:
// failures reach callers as returned errors, so adsapi's production files
// recover nothing, and this package's production files hold exactly one
// panic( — inside must, which adapts ReachShares to the proxy's deprecated
// float64 share methods, outside every program path.
func TestErrorsAreReturnedNotPanicked(t *testing.T) {
	count := func(dir, needle string) (total int, sites []string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(dir + "/" + name)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; ; {
				i := bytes.Index(data[off:], []byte(needle))
				if i < 0 {
					break
				}
				at := off + i
				// The enclosing top-level declaration: the last "\nfunc "
				// before the match.
				fn := data[bytes.LastIndex(data[:at], []byte("\nfunc "))+1:]
				fn = fn[:bytes.IndexByte(fn, '{')]
				sites = append(sites, fmt.Sprintf("%s:%d in %s", name, 1+bytes.Count(data[:at], []byte("\n")), fn))
				total++
				off = at + len(needle)
			}
		}
		return total, sites
	}
	if n, sites := count("../adsapi", "recover()"); n != 0 {
		t.Errorf("adsapi production code calls recover() %d time(s) (%v): backend failures are returned errors", n, sites)
	}
	n, sites := count(".", "panic(")
	if n != 1 || !strings.Contains(sites[0], "func must(") {
		t.Errorf("serving production code has %d panic( site(s) %v, want exactly one, inside must", n, sites)
	}
}

// wantErr asserts err is (or wraps) an E and returns it.
func wantErr[E error](t *testing.T, err error) E {
	t.Helper()
	var target E
	if !errors.As(err, &target) {
		t.Fatalf("error %v, want %T", err, target)
	}
	return target
}

// hungHandler blocks every request until its caller goes away — the stuck
// replica the cancellation tests send estimates to. It drains the body first: the
// net/http server only watches for client disconnect (and cancels
// r.Context()) once the request body has been consumed.
func hungHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
}

// startHungShardTopology is a 2-replica topology whose replica 0 never
// answers: replica 0 hangs forever, replica 1 is a real replica server.
// Rotation sends a fresh proxy's first estimate to replica 0.
func startHungShardTopology(t *testing.T) (*ProxyBackend, func(pc ProxyConfig) *ProxyBackend) {
	t.Helper()
	cfg := smallConfig(1)
	hung := httptest.NewServer(hungHandler())
	t.Cleanup(hung.Close)
	s1, _ := replicaHandler(t, cfg)
	real := httptest.NewServer(s1)
	t.Cleanup(real.Close)
	mk := func(pc ProxyConfig) *ProxyBackend {
		return newTestProxy(t, cfg, []string{hung.URL, real.URL}, pc)
	}
	return mk(ProxyConfig{Timeout: 30 * time.Second}), mk
}

// TestProxyCancelAbortsHungFanOut is the cancellation bound: an estimate
// sent to a hung replica must be abandoned within the caller's cancellation,
// not the 30s per-RPC timeout — and the replica must NOT be marked down for
// the caller's impatience.
func TestProxyCancelAbortsHungFanOut(t *testing.T) {
	proxy, _ := startHungShardTopology(t)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()

	start := time.Now()
	_, _, err := proxy.ReachShares(ctx, population.DemoFilter{}, [][]interest.ID{{1}})
	ce := wantErr[*CanceledError](t, err)
	elapsed := time.Since(start)
	if !errors.Is(ce, context.Canceled) {
		t.Fatalf("CanceledError wraps %v, want context.Canceled", ce.Err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to abort the estimate — the 30s RPC timeout leaked through", elapsed)
	}
	if st := proxy.HealthStats(); st.Down != 0 {
		t.Fatalf("caller cancellation marked a replica down: %+v", st)
	}
}

// TestProxyDeadlinePanicsDeadlineExceeded: same bound, via an expiring
// deadline instead of an explicit cancel — the returned error must
// distinguish the two (the HTTP tier maps them to 504 vs 503).
func TestProxyDeadlinePanicsDeadlineExceeded(t *testing.T) {
	proxy, _ := startHungShardTopology(t)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, _, err := proxy.ReachShares(ctx, randomFilter(rng.New(1).Derive(t.Name())), nil)
	ce := wantErr[*CanceledError](t, err)
	if !errors.Is(ce, context.DeadlineExceeded) {
		t.Fatalf("CanceledError wraps %v, want context.DeadlineExceeded", ce.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to abort the estimate", elapsed)
	}
}

// TestProxyForwardsDeadlineHeader pins the wire contract: every RPC carries
// X-Deadline-Ms with the remaining budget — min(caller deadline, per-RPC
// timeout), never more.
func TestProxyForwardsDeadlineHeader(t *testing.T) {
	cfg := smallConfig(1)
	s0, _ := replicaHandler(t, cfg)
	var mu sync.Mutex
	var got []string
	capture := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Get(DeadlineHeader))
		mu.Unlock()
		// Hiding Hijack keeps every RPC on HTTP, where the header travels.
		s0.ServeHTTP(struct{ http.ResponseWriter }{w}, r)
	}))
	t.Cleanup(capture.Close)
	proxy := newTestProxy(t, cfg, []string{capture.URL}, ProxyConfig{Timeout: 3 * time.Second})

	// No caller deadline: the per-RPC timeout is the budget.
	clauses := [][]interest.ID{{1}}
	unionShare(t, proxy, clauses)
	// Caller deadline tighter than the per-RPC timeout: it wins.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, _, err := proxy.ReachShares(ctx, population.DemoFilter{}, clauses); err != nil {
		t.Fatal(err)
	}

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

// TestShardServerDeadlineHeaderValidation: a malformed, non-positive or
// overflowing X-Deadline-Ms (one whose time.Duration would wrap negative) is
// a caller bug answered 400; a generous valid one serves normally.
func TestShardServerDeadlineHeaderValidation(t *testing.T) {
	cfg := smallConfig(1)
	srv, _ := replicaHandler(t, cfg)
	body := string(shardShareRequest{Clauses: [][]interest.ID{{1}}}.encode())
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"abc", http.StatusBadRequest},
		{"0", http.StatusBadRequest},
		{"-5", http.StatusBadRequest},
		{"60000", http.StatusOK},
		{"10000000000000", http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, shardPathReach, strings.NewReader(body))
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
	srv, _ := replicaHandler(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := string(shardShareRequest{Clauses: [][]interest.ID{{1}}}.encode())
	for _, path := range []string{shardPathReach, shardPathWarm} {
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
	_, _, err := proxy.ReachShares(context.Background(), population.DemoFilter{}, [][]interest.ID{{1}})
	wantErr[*UnavailableError](t, err)
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
	urls := startReplicas(t, cfg, 2, noWrap)
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

// BenchmarkProxyBreakerFastFail measures the whole point of the breaker:
// estimates over a topology whose dead replica's breaker is OPEN must cost
// microseconds (one live-replica RPC, after a mutex check on the dead replica
// when it is the dead replica's turn), not the per-RPC timeout the dead replica
// would otherwise eat. CI gates the reported ns/op at
// <= 1/10 of the 250ms per-RPC timeout configured here.
func BenchmarkProxyBreakerFastFail(b *testing.B) {
	cfg := smallConfig(1)
	s0, info, err := NewReplicaBackend(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewShardServer(s0, info)
	if err != nil {
		b.Fatal(err)
	}
	live := httptest.NewServer(srv)
	defer live.Close()

	// The dead replica: a URL nothing listens on. The open breaker means it is
	// never dialed — which is exactly what this benchmark proves.
	dead := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := dead.URL
	dead.Close()

	frozen := time.Unix(1800000000, 0)
	pc := ProxyConfig{
		URLs:    []string{live.URL, deadURL},
		Timeout: 250 * time.Millisecond,
		// A frozen clock keeps the breaker open forever (no half-open
		// trials mid-benchmark).
		Breaker: BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour, Now: func() time.Time { return frozen }},
		Now:     func() time.Time { return frozen },
	}
	proxy, err := NewProxyBackend(cfg, pc)
	if err != nil {
		b.Fatal(err)
	}
	// Trip replica 1's breaker the way production would: one data-path
	// failure at threshold 1.
	proxy.breakers[1].OnFailure()
	if st := proxy.breakers[1].State(); st != BreakerOpen {
		b.Fatalf("breaker not open: %v", st)
	}

	clauses := [][]interest.ID{{1, 2}, {3}}
	unionShare(b, proxy, clauses) // warm the live replica's rows/cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unionShare(b, proxy, clauses)
	}
}
