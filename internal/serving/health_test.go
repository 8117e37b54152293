package serving

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	ln      *trackingListener
}

// trackingListener remembers every connection it accepts.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// closeAll closes every accepted connection.
func (l *trackingListener) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
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
	s.ln = &trackingListener{Listener: ln}
	go func(srv *http.Server, ln net.Listener, done chan struct{}) {
		srv.Serve(ln)
		close(done)
	}(s.srv, s.ln, s.done)
}

func (s *restartableShard) URL() string { return "http://" + s.addr }

// Kill closes the listener and every connection it accepted, as a process
// death would: http.Server.Close leaves hijacked connections — the proxy's
// upgraded reach connections — open, so Kill closes those itself. The port
// is retained only in s.addr.
func (s *restartableShard) Kill() {
	if s.srv == nil {
		return
	}
	s.srv.Close()
	s.ln.closeAll()
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

// TestProxyFailoverRenormalizeVsFail is the failover acceptance test: a
// 2-shard topology loses one shard mid-run. Under renormalize the proxy
// keeps answering from the survivor — the exact answer, flagged degraded;
// under fail it refuses with an UnavailableError naming the dead shard.
// After a kill-and-restart plus probe, both serve undegraded again.
func TestProxyFailoverRenormalizeVsFail(t *testing.T) {
	cfg := smallConfig(42)
	s0, _ := shardHandler(t, cfg, 0, 2)
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

	// Renormalize: the first estimate whose turn is shard 1's — one of the
	// next two — discovers the death on the data path, fails over to the
	// survivor, whose share is the exact answer, and flips Degraded.
	for k := 0; k < renorm.NumShards(); k++ {
		if got := renorm.UnionShare(context.Background(), clauses); got != want {
			t.Fatalf("estimate %d with shard 1 dead = %v, want %v", k, got, want)
		}
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

	// The data path must NOT resurrect a shard: queries against the
	// renormalize proxy leave shard 1 down.
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

// TestProxyFailsOverAcrossShards: every shard holds the whole world's
// shares, so an estimate whose shard is dead is answered exactly by the next
// shard in rotation order. Over a 3-shard topology with shard 1 killed,
// renormalize answers every estimate byte-identical to LocalBackend —
// estimate 1, shard 1's turn, from shard 2 — and stamps degraded from then
// on, sending no further RPC to the corpse. Fail refuses estimate 1 naming
// shard 1 and keeps refusing, on healthy shards' turns too, until a probe
// finds shard 1 back.
func TestProxyFailsOverAcrossShards(t *testing.T) {
	cfg := smallConfig(0)
	ctx := context.Background()
	local, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	shards := make([]*restartableShard, n)
	urls := make([]string, n)
	for i := range shards {
		srv, _ := shardHandler(t, cfg, i, n)
		shards[i] = startRestartableShard(t, srv)
		urls[i] = shards[i].URL()
	}
	pc := ProxyConfig{MaxRetries: 1, Sleep: immediateSleep}
	pc.Policy = PolicyRenormalize
	renorm := newTestProxy(t, cfg, urls, pc)
	pc.Policy = PolicyFail
	failing := newTestProxy(t, cfg, urls, pc)

	f := population.DemoFilter{Countries: []string{"ES"}, AgeMin: 25, AgeMax: 40}
	clauses := [][]interest.ID{{4, 5}, {6}}
	wantD, wantU, _ := local.ReachShares(ctx, f, clauses) // a LocalBackend never fails
	exact := func(p *ProxyBackend, what string) {
		t.Helper()
		demo, union, err := p.ReachShares(ctx, f, clauses)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if demo != wantD || union != wantU {
			t.Fatalf("%s = (%v, %v), LocalBackend (%v, %v) — must be byte-identical", what, demo, union, wantD, wantU)
		}
	}
	shards[1].Kill()

	// Estimate k's turn is shard k mod 3. Shard 1 refuses both attempts of
	// estimate 1, which moves on to shard 2; estimate 4 skips the shard
	// marked down without touching its wire. The counts are RPCs per shard.
	for k, want := range [][]int64{
		{1, 0, 0},
		{0, 2, 1},
		{0, 0, 1},
		{1, 0, 0},
		{0, 0, 1},
	} {
		before := rpcCounts(renorm)
		exact(renorm, fmt.Sprintf("renormalize estimate %d", k))
		if got := rpcDelta(renorm, before); !reflect.DeepEqual(got, want) {
			t.Fatalf("renormalize estimate %d sent RPCs %v per shard, want %v", k, got, want)
		}
		if renorm.Degraded() != (k >= 1) {
			t.Fatalf("renormalize estimate %d: Degraded = %v, want %v", k, renorm.Degraded(), k >= 1)
		}
	}

	// Fail: estimate 0 is served, estimate 1 is refused naming shard 1, and
	// estimate 2 — shard 2's turn — is refused before any RPC.
	exact(failing, "fail-policy estimate 0")
	for k := 1; k <= 2; k++ {
		before := rpcCounts(failing)
		_, _, err := failing.ReachShares(ctx, f, clauses)
		ue := wantErr[*UnavailableError](t, err)
		if !reflect.DeepEqual(ue.Down, []string{urls[1]}) {
			t.Fatalf("fail-policy estimate %d: UnavailableError names %v, want [%s]", k, ue.Down, urls[1])
		}
		if got := rpcDelta(failing, before); k == 2 && sum(got) != 0 {
			t.Fatalf("fail-policy estimate 2 sent RPCs %v per shard after refusing", got)
		}
	}

	shards[1].Restart()
	for _, p := range []*ProxyBackend{renorm, failing} {
		p.ProbeNow(ctx)
		for k := 0; k < n; k++ {
			exact(p, fmt.Sprintf("%v estimate %d after restart", p.policy, k))
		}
		if p.Degraded() {
			t.Fatalf("%v proxy degraded after restart: %+v", p.policy, p.HealthStats())
		}
	}
}

// TestProxyAllShardsDown: renormalize has no shard to fail over to when
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
