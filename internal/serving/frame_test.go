package serving

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

// countRequests is middleware counting the HTTP requests that reach h. It
// hands h the server's own ResponseWriter, so h can hijack it.
func countRequests(n *atomic.Int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		h.ServeHTTP(w, r)
	})
}

// plainWriter hides every optional interface of the ResponseWriter it
// wraps, Hijack included — what a tracing or metrics wrapper without Unwrap
// does to a handler.
type plainWriter struct{ w http.ResponseWriter }

func (p plainWriter) Header() http.Header         { return p.w.Header() }
func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p plainWriter) WriteHeader(code int)        { p.w.WriteHeader(code) }

// TestReachRPCUpgradesToFrames: the first reach RPC to a shard upgrades its
// connection, and every later estimate is a frame on it — the shard's HTTP
// stack sees one request for ten estimates. Behind a ResponseWriter wrapper
// without Hijack the same shard answers every estimate over HTTP. Either
// way each estimate is one RPC and byte-identical to LocalBackend.
func TestReachRPCUpgradesToFrames(t *testing.T) {
	cfg := smallConfig(3)
	local, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		wrap     func(http.Handler) http.Handler
		requests int64
	}{
		{"hijackable", func(h http.Handler) http.Handler { return h }, 1},
		{"no-hijack", func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h.ServeHTTP(plainWriter{w}, r) })
		}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := replicaHandler(t, cfg)
			var requests atomic.Int64
			ts := httptest.NewServer(countRequests(&requests, tc.wrap(srv)))
			t.Cleanup(ts.Close)
			proxy := newTestProxy(t, cfg, []string{ts.URL}, ProxyConfig{})
			r := rng.New(3).Derive(t.Name())
			for k := 0; k < 10; k++ {
				f, clauses := randomFilter(r), randomClauses(r, cfg.Population.CatalogSize)
				demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
				if err != nil {
					t.Fatalf("estimate %d: %v", k, err)
				}
				wantD, wantU, _ := local.ReachShares(context.Background(), f, clauses) // a LocalBackend never fails
				if demo != wantD || union != wantU {
					t.Fatalf("estimate %d = (%v, %v), LocalBackend (%v, %v)", k, demo, union, wantD, wantU)
				}
			}
			if n := requests.Load(); n != tc.requests {
				t.Fatalf("10 estimates reached the shard as %d HTTP requests, want %d", n, tc.requests)
			}
			if n := sum(rpcCounts(proxy)); n != 10 {
				t.Fatalf("10 estimates took %d RPCs", n)
			}
		})
	}
}

// TestShardIdleTimeoutRetiresFrameConn: a shard whose IdleTimeout is a few
// milliseconds closes a pooled upgraded connection while it idles. The next
// estimate finds the connection stale before any answer byte and re-sends
// on a fresh one (the shard accepts a second connection), with no retry
// backoff, no failover, the replica up and its breaker closed, and the
// answer exact.
func TestShardIdleTimeoutRetiresFrameConn(t *testing.T) {
	cfg := smallConfig(1)
	srv, b0 := replicaHandler(t, cfg)
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.IdleTimeout = 5 * time.Millisecond
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	var sleeps atomic.Int64
	proxy := newTestProxy(t, cfg, []string{ts.URL}, ProxyConfig{
		MaxRetries: 1,
		Breaker:    BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
		Sleep: func(ctx context.Context, d time.Duration) error {
			sleeps.Add(1)
			return nil
		},
	})
	f := population.DemoFilter{Countries: []string{"FR"}}
	clauses := [][]interest.ID{{7, 8}, {9}}
	wantD, wantU, _ := b0.ReachShares(context.Background(), f, clauses) // a LocalBackend never fails
	for k := 0; k < 2; k++ {
		if k == 1 {
			waitFor(t, func() bool { return ln.closed.Load() == 1 }) // the idle shard hangs up
		}
		before := rpcCounts(proxy)
		demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
		if err != nil {
			t.Fatalf("estimate %d: %v", k, err)
		}
		if demo != wantD || union != wantU {
			t.Fatalf("estimate %d = (%v, %v), want (%v, %v)", k, demo, union, wantD, wantU)
		}
		if n := sum(rpcDelta(proxy, before)); n != 1 {
			t.Fatalf("estimate %d took %d RPC attempts, want 1", k, n)
		}
	}
	if n := ln.accepted.Load(); n != 2 {
		t.Fatalf("shard accepted %d connections, want 2: the idle one retired, then a fresh one", n)
	}
	st := proxy.HealthStats()
	if n := sleeps.Load(); n != 0 || st.Failovers != 0 || st.Down != 0 || st.Shards[0].Breaker != "closed" {
		t.Fatalf("a stale pooled connection cost %d retry sleeps: %+v", n, st)
	}
}

// TestFramePoolExpiresIdleConns: a pooled connection idle longer than
// shardIdleConnTimeout is closed, not handed out.
func TestFramePoolExpiresIdleConns(t *testing.T) {
	pool := make(framePool, 2)
	proxyEnd, shardEnd := net.Pipe()
	defer shardEnd.Close()
	expired := &frameConn{rwc: proxyEnd}
	pool.put(expired)
	expired.since = time.Now().Add(-shardIdleConnTimeout - time.Second)
	if c := pool.get(); c != nil {
		t.Fatal("an expired connection was handed out")
	}
	if _, err := proxyEnd.Write([]byte{0}); err == nil {
		t.Fatal("the expired connection is still open")
	}
	fresh := &frameConn{rwc: shardEnd}
	pool.put(fresh)
	if c := pool.get(); c != fresh {
		t.Fatal("a fresh pooled connection was not handed out")
	}
}

// frameShard is a fake shard speaking the reach-frame protocol: it upgrades
// every reach RPC and answers the k-th RPC on a connection (k = 0 is the
// upgrading one) with answer(k, body). An answer with status 0 is never
// sent: the shard then waits for the proxy to close the connection. Every
// upgraded connection's end is reported on closed.
func frameShard(t *testing.T, answer func(k int, body []byte) (int, []byte)) (url string, closed <-chan struct{}) {
	t.Helper()
	gone := make(chan struct{}, 16) // more than any test's connections, so no handler blocks reporting
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != shardPathReach {
			http.NotFound(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		conn, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer func() {
			conn.Close()
			gone <- struct{}{}
		}()
		rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + reachProtocol + "\r\n\r\n")
		for k := 0; ; k++ {
			if k > 0 {
				if _, body, err = readRequestFrame(rw.Reader, nil); err != nil {
					return
				}
			}
			status, payload := answer(k, body)
			if status == 0 {
				io.Copy(io.Discard, rw) // until the proxy closes
				return
			}
			rw.Write(appendAnswerFrame(nil, status, 0, payload))
			if rw.Flush() != nil {
				return
			}
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL, gone
}

// TestFramed504IsPermanent: a frame whose budget is already spent when the
// shard reaches compute is answered 504 — the shard counts the budget from
// the frame's arrival, so a body that trails its budget spends it — and the
// proxy treats a framed 504 as permanent: no retry, and the failure feeds
// the breaker.
func TestFramed504IsPermanent(t *testing.T) {
	cfg := smallConfig(1)
	srv, _ := replicaHandler(t, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	body := shardShareRequest{Clauses: [][]interest.ID{{1}}}.encode()

	// The shard: upgrade by hand, then send a 1ms budget and the body 100ms
	// later.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: shard\r\nContent-Length: %d\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n%s",
		shardPathReach, len(body), reachProtocol, body)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %v, %v", resp, err)
	}
	if _, status, _, err := readAnswerFrame(br); err != nil || status != http.StatusOK {
		t.Fatalf("upgrading RPC answered %d, %v", status, err)
	}
	frame := appendRequestFrame(nil, 1, body)
	conn.Write(frame[:1])
	time.Sleep(100 * time.Millisecond)
	conn.Write(frame[1:])
	data, status, _, err := readAnswerFrame(br)
	if err != nil || status != http.StatusGatewayTimeout || !strings.Contains(string(data), "deadline exhausted before compute") {
		t.Fatalf("a frame past its budget answered %d %q, %v; want a 504", status, data, err)
	}

	// The proxy: the upgrading RPC is answered, the next frame gets a 504.
	url, _ := frameShard(t, func(k int, body []byte) (int, []byte) {
		if k == 0 {
			return srv.shareAnswer(context.Background(), body)
		}
		return http.StatusGatewayTimeout, errorBody(deadlineMessage(context.DeadlineExceeded))
	})
	var slept atomic.Int64
	proxy := newTestProxy(t, cfg, []string{url}, ProxyConfig{
		MaxRetries: 3,
		Breaker:    BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept.Add(1)
			return nil
		},
	})
	if _, _, err := proxy.ReachShares(context.Background(), population.DemoFilter{}, [][]interest.ID{{1}}); err != nil {
		t.Fatal(err)
	}
	_, _, err = proxy.ReachShares(context.Background(), population.DemoFilter{}, [][]interest.ID{{1}})
	wantErr[*UnavailableError](t, err)
	st := proxy.HealthStats()
	if slept.Load() != 0 || st.Shards[0].RPCs != 2 {
		t.Fatalf("the proxy retried a framed 504 (%d backoff sleeps, %d RPCs for 2 estimates)", slept.Load(), st.Shards[0].RPCs)
	}
	if st.Shards[0].Breaker != "open" {
		t.Fatalf("breaker after a framed 504 is %q, want open", st.Shards[0].Breaker)
	}
}

// TestHedgeLoserFrameConnClosed: a hedge loser's upgraded connection is
// closed, not pooled. Replica 0 answers the upgrading estimate, then hangs
// on the next frame — estimate 2, its next turn; the hedge to replica 1
// wins, and the loser's connection closes (the hung replica sees it go)
// instead of returning to the pool. Every answer is byte-identical to
// LocalBackend.
func TestHedgeLoserFrameConnClosed(t *testing.T) {
	cfg := smallConfig(1)
	srv, b0 := replicaHandler(t, cfg)
	hangURL, closed := frameShard(t, func(k int, body []byte) (int, []byte) {
		if k == 0 {
			return srv.shareAnswer(context.Background(), body)
		}
		return 0, nil
	})
	live := httptest.NewServer(srv)
	t.Cleanup(live.Close)
	var hedge atomic.Bool // the hedge timer fires only once set
	proxy := newTestProxy(t, cfg, []string{hangURL, live.URL}, ProxyConfig{
		HedgeAfter: time.Microsecond,
		Breaker:    BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
		Sleep: func(ctx context.Context, d time.Duration) error {
			if hedge.Load() {
				return nil
			}
			<-ctx.Done()
			return ctx.Err()
		},
	})
	f := population.DemoFilter{Countries: []string{"US"}}
	clauses := [][]interest.ID{{2, 3}}
	wantD, wantU, _ := b0.ReachShares(context.Background(), f, clauses) // a LocalBackend never fails
	for k := 0; k < 3; k++ {
		hedge.Store(k == 2)
		demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
		if err != nil {
			t.Fatalf("estimate %d: %v", k, err)
		}
		if demo != wantD || union != wantU {
			t.Fatalf("estimate %d = (%v, %v), want (%v, %v)", k, demo, union, wantD, wantU)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the hedge loser's connection was never closed")
	}
	if idle := len(proxy.frames[0]); idle != 0 {
		t.Fatalf("the hedge loser's connection went back to the pool (%d idle)", idle)
	}
	st := proxy.HealthStats()
	if st.HedgeWins != 1 || st.Down != 0 || st.Shards[0].Breaker != "closed" {
		t.Fatalf("a canceled hedge loser must be a neutral verdict: %+v", st)
	}
}

// TestProxyKillMidFloodOverFrames: killing a replica mid-flood while the
// proxy holds upgraded connections to it fails over exactly — every
// estimate answers, byte-identical to LocalBackend — and the dead replica
// is marked down. Kill closes the hijacked connections as a process death
// would; were they left open, the corpse would keep answering frames.
func TestProxyKillMidFloodOverFrames(t *testing.T) {
	cfg := smallConfig(5)
	local, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := replicaHandler(t, cfg)
	sb, _ := replicaHandler(t, cfg)
	a, b := startRestartableShard(t, sa), startRestartableShard(t, sb)
	proxy := newTestProxy(t, cfg, []string{a.URL(), b.URL()}, ProxyConfig{MaxRetries: 1, Sleep: immediateSleep})
	const callers, perCaller, killAt = 4, 60, 80
	var done atomic.Int64
	var kill sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c)).Derive(t.Name())
			for k := 0; k < perCaller; k++ {
				f, clauses := randomFilter(r), randomClauses(r, cfg.Population.CatalogSize)
				demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
				wantD, wantU, _ := local.ReachShares(context.Background(), f, clauses) // a LocalBackend never fails
				if err != nil || demo != wantD || union != wantU {
					errs <- fmt.Errorf("caller %d estimate %d = (%v, %v, %v), want (%v, %v)", c, k, demo, union, err, wantD, wantU)
					return
				}
				if done.Add(1) == killAt {
					kill.Do(a.Kill)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := proxy.HealthStats()
	if st.Shards[0].Up || st.Shards[1].Breaker != "closed" || !st.Shards[1].Up {
		t.Fatalf("replica 0 killed mid-flood should be the one down: %+v", st.Shards)
	}
	// Each caller holds at most one connection at a time, so replica 0
	// served its share of the flood as frames on at most callers of them.
	if n := int64(len(a.ln.conns)); n > callers || st.Shards[0].RPCs <= n {
		t.Fatalf("replica 0 accepted %d connections for %d RPCs", n, st.Shards[0].RPCs)
	}
}
