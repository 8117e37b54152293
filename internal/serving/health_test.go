package serving

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/worldcfg"
)

// fakeClock is a mutex-wrapped manual clock for health-state timestamps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// restartableShard is the kill-and-restart harness: a shard server on a real
// 127.0.0.1 listener whose address survives Kill, so Restart rebinds the
// SAME host:port and the proxy's stored URL becomes reachable again.
type restartableShard struct {
	t       *testing.T
	handler http.Handler
	addr    string
	srv     *http.Server
	done    chan struct{}
}

func startRestartableShard(t *testing.T, h http.Handler) *restartableShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &restartableShard{t: t, handler: h, addr: ln.Addr().String()}
	s.serve(ln)
	t.Cleanup(s.Kill)
	return s
}

func (s *restartableShard) serve(ln net.Listener) {
	s.srv = &http.Server{Handler: s.handler}
	s.done = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		srv.Serve(ln)
		close(done)
	}(s.srv, s.done)
}

func (s *restartableShard) URL() string { return "http://" + s.addr }

// Kill closes the listener and all connections; the port is retained only in
// s.addr.
func (s *restartableShard) Kill() {
	if s.srv == nil {
		return
	}
	s.srv.Close()
	<-s.done
	s.srv = nil
}

// Restart rebinds the original address. Go listeners set SO_REUSEADDR, so
// the rebind succeeds immediately after Kill.
func (s *restartableShard) Restart() {
	s.t.Helper()
	if s.srv != nil {
		s.t.Fatal("Restart on a live shard")
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatalf("rebinding %s: %v", s.addr, err)
	}
	s.serve(ln)
}

func shardHandler(t *testing.T, cfg worldcfg.Config, index, count int) (*ShardServer, *LocalBackend) {
	t.Helper()
	b, info, err := NewShardBackend(cfg, index, count)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(b, info)
	if err != nil {
		t.Fatal(err)
	}
	return srv, b
}

// TestProxyFailoverRenormalizeVsFail is the ISSUE's failover acceptance
// test: a 2-shard topology loses one shard mid-run. Under renormalize the
// proxy keeps answering (the survivor's bare share, responses flagged
// degraded); under fail it refuses with an UnavailableError naming the dead
// shard. After a kill-and-restart plus probe, both serve exact answers
// again.
func TestProxyFailoverRenormalizeVsFail(t *testing.T) {
	cfg := smallConfig(42)
	s0, b0 := shardHandler(t, cfg, 0, 2)
	s1, _ := shardHandler(t, cfg, 1, 2)
	shard0 := startRestartableShard(t, s0)
	shard1 := startRestartableShard(t, s1)
	urls := []string{shard0.URL(), shard1.URL()}

	sharded, err := NewShardedBackend(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	clauses := [][]interest.ID{{1, 2}, {3}}
	want := sharded.UnionShare(context.Background(), clauses)

	clock := &fakeClock{t: time.Unix(1000, 0)}
	renorm := newTestProxy(t, cfg, urls, ProxyConfig{
		Policy: PolicyRenormalize, MaxRetries: 1, Now: clock.Now,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})
	failing := newTestProxy(t, cfg, urls, ProxyConfig{
		Policy: PolicyFail, MaxRetries: 1, Now: clock.Now,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})

	// Healthy topology: both policies serve the exact sharded answer and
	// report nothing degraded.
	for _, p := range []*ProxyBackend{renorm, failing} {
		p.ProbeNow(context.Background())
		if got := p.UnionShare(context.Background(), clauses); got != want {
			t.Fatalf("healthy proxy share = %v, want %v", got, want)
		}
		if p.Degraded() {
			t.Fatal("healthy proxy reports degraded")
		}
		st := p.HealthStats()
		if st.Up != 2 || st.Down != 0 || st.Rounds != 1 {
			t.Fatalf("healthy stats: %+v", st)
		}
	}

	// Kill shard 1 mid-run.
	shard1.Kill()
	clock.Advance(time.Second)

	// Renormalize: the first scatter discovers the death on the data path,
	// still answers from the survivor (bare share — weight renormalized to
	// exactly 1), and flips Degraded.
	// (In this simulator the shard models are share-calibrated, so the
	// survivor's share happens to equal the full answer too — the assert
	// pins the fold to the survivor, the Degraded flag records the honesty.)
	got := renorm.UnionShare(context.Background(), clauses)
	if wantLive := b0.UnionShare(context.Background(), clauses); got != wantLive {
		t.Fatalf("degraded share = %v, want live shard's %v", got, wantLive)
	}
	if !renorm.Degraded() {
		t.Fatal("renormalize proxy should report degraded after losing a shard")
	}
	st := renorm.HealthStats()
	if st.Down != 1 || st.Shards[1].Up || st.Shards[1].LastError == "" {
		t.Fatalf("health after data-path failure: %+v", st)
	}

	// Fail: the probe round records the death, then the query refuses,
	// naming the dead shard's URL.
	failing.ProbeNow(context.Background())
	if fs := failing.HealthStats(); fs.Down != 1 || fs.Shards[1].Up {
		t.Fatalf("fail-policy probe missed the dead shard: %+v", fs)
	}
	_, _, err = failing.ReachShares(context.Background(), population.DemoFilter{}, clauses)
	ue := wantErr[*UnavailableError](t, err)
	if len(ue.Down) != 1 || ue.Down[0] != shard1.URL() {
		t.Fatalf("UnavailableError names %v, want [%s]", ue.Down, shard1.URL())
	}

	// The data path must NOT resurrect a shard: queries against the still
	// renormalizing proxy leave shard 1 down.
	renorm.UnionShare(context.Background(), clauses)
	if !renorm.Degraded() {
		t.Fatal("shard came back without a probe")
	}

	// Kill-and-restart: rebind the same address, probe, and both proxies
	// serve the exact answer again.
	shard1.Restart()
	clock.Advance(time.Second)
	for _, p := range []*ProxyBackend{renorm, failing} {
		p.ProbeNow(context.Background())
		if p.Degraded() {
			t.Fatalf("proxy still degraded after restart: %+v", p.HealthStats())
		}
		if got := p.UnionShare(context.Background(), clauses); got != want {
			t.Fatalf("post-restart share = %v, want %v", got, want)
		}
	}
}

// TestProxyAllShardsDown: renormalize has nothing to renormalize over when
// every shard is gone — the proxy must refuse rather than fabricate.
func TestProxyAllShardsDown(t *testing.T) {
	cfg := smallConfig(1)
	s0, _ := shardHandler(t, cfg, 0, 1)
	shard := startRestartableShard(t, s0)
	proxy := newTestProxy(t, cfg, []string{shard.URL()}, ProxyConfig{
		Policy: PolicyRenormalize, MaxRetries: 0,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})
	shard.Kill()
	_, _, err := proxy.ReachShares(context.Background(), population.DemoFilter{}, nil)
	ue := wantErr[*UnavailableError](t, err)
	if len(ue.Down) != 1 {
		t.Fatalf("UnavailableError names %v", ue.Down)
	}
}

// TestProbeRejectsWrongIdentity: a live shard serving the wrong slice of the
// topology (or the wrong world) must be treated as down, not folded in.
func TestProbeRejectsWrongIdentity(t *testing.T) {
	cfg := smallConfig(1)

	// Shard claims index 1 of 3; the proxy expects index 0 of 1.
	wrongIndex, _ := shardHandler(t, cfg, 1, 3)
	ts := httptest.NewServer(wrongIndex)
	defer ts.Close()
	proxy := newTestProxy(t, cfg, []string{ts.URL}, ProxyConfig{})
	proxy.ProbeNow(context.Background())
	st := proxy.HealthStats()
	if st.Down != 1 {
		t.Fatalf("identity mismatch not detected: %+v", st)
	}

	// A different world (catalog size) behind the right index.
	otherCfg := smallConfig(1)
	otherCfg.Population.CatalogSize = 500
	otherWorld, _ := shardHandler(t, otherCfg, 0, 1)
	ts2 := httptest.NewServer(otherWorld)
	defer ts2.Close()
	proxy2 := newTestProxy(t, cfg, []string{ts2.URL}, ProxyConfig{})
	proxy2.ProbeNow(context.Background())
	if proxy2.HealthStats().Down != 1 {
		t.Fatalf("world mismatch not detected: %+v", proxy2.HealthStats())
	}
}

// TestStartHealthRecoversShard drives the production probe loop (wall-clock
// ticker) across a kill/restart cycle.
func TestStartHealthRecoversShard(t *testing.T) {
	cfg := smallConfig(1)
	s0, _ := shardHandler(t, cfg, 0, 1)
	shard := startRestartableShard(t, s0)
	proxy := newTestProxy(t, cfg, []string{shard.URL()}, ProxyConfig{
		Policy:        PolicyRenormalize,
		ProbeInterval: 2 * time.Millisecond,
		MaxRetries:    0,
		Sleep:         func(ctx context.Context, d time.Duration) error { return nil },
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proxy.StartHealth(ctx)

	shard.Kill()
	waitFor(t, func() bool { return proxy.HealthStats().Down == 1 })
	shard.Restart()
	waitFor(t, func() bool { return proxy.HealthStats().Down == 0 })
	if proxy.Degraded() {
		t.Fatal("recovered topology still degraded")
	}
}

// TestProbeAbortedByCallerKeepsVerdict: a probe round whose context ends
// (StartHealth's loop stopping) must not mark live replicas down — the
// aborted probe says nothing about them.
func TestProbeAbortedByCallerKeepsVerdict(t *testing.T) {
	cfg := smallConfig(1)
	urls := startShardTopology(t, cfg, 2)
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	proxy.ProbeNow(ctx)
	if st := proxy.HealthStats(); st.Up != 2 || st.Rounds != 1 {
		t.Fatalf("an aborted probe round changed replica verdicts: %+v", st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"fail": PolicyFail, "renormalize": PolicyRenormalize} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Policy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy should fail")
	}
}

func TestUnavailableErrorMessage(t *testing.T) {
	e := &UnavailableError{Down: []string{"http://a", "http://b"}}
	msg := e.Error()
	if !errors.As(error(e), new(*UnavailableError)) {
		t.Fatal("errors.As should match")
	}
	for _, want := range []string{"2 shard(s) down", "http://a", "http://b"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}
