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
	"sync/atomic"
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

// replicaHandler builds a whole-world replica server for cfg, as fbadsd
// -shard-listen does.
func replicaHandler(t *testing.T, cfg worldcfg.Config) (*ShardServer, *LocalBackend) {
	t.Helper()
	b, info, err := NewReplicaBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(b, info)
	if err != nil {
		t.Fatal(err)
	}
	return srv, b
}

// TestProxyFailsOverAcrossShards is the failover acceptance test: every
// replica holds the whole world's shares, so an estimate whose replica is
// dead is answered exactly by the next live replica in rotation order. Over
// 3 replicas with replica 1 killed mid-run, every estimate is
// byte-identical to LocalBackend — estimate 1, replica 1's turn, from
// replica 2 — and once the data path has marked replica 1 down no further
// RPC reaches it. Only a probe resurrects a replica: after a
// kill-and-restart plus probe, rotation reaches replica 1 again.
func TestProxyFailsOverAcrossShards(t *testing.T) {
	cfg := smallConfig(0)
	ctx := context.Background()
	local, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	replicas := make([]*restartableShard, n)
	urls := make([]string, n)
	for i := range replicas {
		srv, _ := replicaHandler(t, cfg)
		replicas[i] = startRestartableShard(t, srv)
		urls[i] = replicas[i].URL()
	}
	clock := &fakeClock{t: time.Unix(1000, 0)}
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{Sleep: immediateSleep, Now: clock.Now})

	f := population.DemoFilter{Countries: []string{"ES"}, AgeMin: 25, AgeMax: 40}
	clauses := [][]interest.ID{{4, 5}, {6}}
	wantD, wantU, _ := local.ReachShares(ctx, f, clauses) // a LocalBackend never fails
	// estimate checks one estimate's answer and the RPCs each replica got.
	estimate := func(what string, want []int64) {
		t.Helper()
		before := rpcCounts(proxy)
		demo, union, err := proxy.ReachShares(ctx, f, clauses)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if demo != wantD || union != wantU {
			t.Fatalf("%s = (%v, %v), LocalBackend (%v, %v) — must be byte-identical", what, demo, union, wantD, wantU)
		}
		if got := rpcDelta(proxy, before); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s sent RPCs %v per replica, want %v", what, got, want)
		}
	}
	proxy.ProbeNow(ctx)
	if st := proxy.HealthStats(); st.Up != n || st.Down != 0 || st.Rounds != 1 {
		t.Fatalf("healthy stats: %+v", st)
	}

	replicas[1].Kill()
	clock.Advance(time.Second)
	// Estimate k's turn is replica k mod 3. Replica 1 refuses the one
	// attempt of estimate 1, which moves on to replica 2; estimate 4 skips
	// the replica marked down without touching its wire.
	for k, want := range [][]int64{
		{1, 0, 0},
		{0, 1, 1},
		{0, 0, 1},
		{1, 0, 0},
		{0, 0, 1},
	} {
		estimate(fmt.Sprintf("estimate %d with replica 1 dead", k), want)
	}
	st := proxy.HealthStats()
	if st.Down != 1 || st.Shards[1].Up || st.Shards[1].LastError == "" || st.Failovers != 1 {
		t.Fatalf("health after data-path failure: %+v", st)
	}

	// Restart on the same address: the data path does not resurrect the
	// replica, a probe does, and rotation then reaches it again.
	replicas[1].Restart()
	estimate("estimate 5 after restart, before a probe", []int64{0, 0, 1})
	clock.Advance(time.Second)
	proxy.ProbeNow(ctx)
	for k := 0; k < n; k++ {
		want := make([]int64, n)
		want[k] = 1
		estimate(fmt.Sprintf("estimate %d after the probe", 6+k), want)
	}
	if st := proxy.HealthStats(); st.Down != 0 {
		t.Fatalf("replica still down after restart and probe: %+v", st)
	}
}

// TestProxyFailoverRenormalizeVsFail: two proxies over the same two
// replicas stand where the renormalize and fail policies once did. With
// replica 1 killed, one proxy learns of the death on the data path and the
// other from a probe round; both answer every estimate exactly from
// replica 0, where the fail policy used to refuse, and the probed proxy
// never sends replica 1 an RPC. Only a proxy with no live replica left
// fails, with *UnavailableError naming every replica. The data path never
// resurrects a replica; after a kill-and-restart plus probe both proxies
// reach replica 1 again.
func TestProxyFailoverRenormalizeVsFail(t *testing.T) {
	cfg := smallConfig(42)
	ctx := context.Background()
	srv0, local := replicaHandler(t, cfg)
	srv1, _ := replicaHandler(t, cfg)
	replica0 := startRestartableShard(t, srv0)
	replica1 := startRestartableShard(t, srv1)
	urls := []string{replica0.URL(), replica1.URL()}

	f := population.DemoFilter{Countries: []string{"ES"}, AgeMin: 18, AgeMax: 30}
	clauses := [][]interest.ID{{1, 2}, {3}}
	wantD, wantU, _ := local.ReachShares(ctx, f, clauses) // a LocalBackend never fails

	clock := &fakeClock{t: time.Unix(1000, 0)}
	dataPath := newTestProxy(t, cfg, urls, ProxyConfig{Sleep: immediateSleep, Now: clock.Now})
	probed := newTestProxy(t, cfg, urls, ProxyConfig{Sleep: immediateSleep, Now: clock.Now})
	proxies := []*ProxyBackend{dataPath, probed}
	exact := func(what string, p *ProxyBackend) []int64 {
		t.Helper()
		before := rpcCounts(p)
		demo, union, err := p.ReachShares(ctx, f, clauses)
		if err != nil || demo != wantD || union != wantU {
			t.Fatalf("%s = (%v, %v, %v), want (%v, %v)", what, demo, union, err, wantD, wantU)
		}
		return rpcDelta(p, before)
	}

	// Healthy topology: both proxies serve the exact answer with nothing down.
	for _, p := range proxies {
		p.ProbeNow(ctx)
		exact("healthy estimate", p)
		if st := p.HealthStats(); st.Up != 2 || st.Down != 0 || st.Rounds != 1 {
			t.Fatalf("healthy stats: %+v", st)
		}
	}

	replica1.Kill()
	clock.Advance(time.Second)

	// Data path: the estimate whose turn is replica 1's — one of the next
	// two — discovers the death and fails over to replica 0.
	for k := 0; k < 2; k++ {
		exact(fmt.Sprintf("data-path estimate %d with replica 1 dead", k), dataPath)
	}
	if st := dataPath.HealthStats(); st.Down != 1 || st.Shards[1].Up || st.Shards[1].LastError == "" || st.Failovers != 1 {
		t.Fatalf("health after data-path failure: %+v", st)
	}

	// Probe: the round records the death first, so no estimate touches
	// replica 1's wire and none needs a failover.
	probed.ProbeNow(ctx)
	if st := probed.HealthStats(); st.Down != 1 || st.Shards[1].Up {
		t.Fatalf("probe missed the dead replica: %+v", st)
	}
	for k := 0; k < 2; k++ {
		if got := exact(fmt.Sprintf("probed estimate %d with replica 1 dead", k), probed); !reflect.DeepEqual(got, []int64{1, 0}) {
			t.Fatalf("probed estimate %d sent RPCs %v per replica, want [1 0]", k, got)
		}
	}

	// The data path must NOT resurrect a replica.
	exact("estimate after the failover", dataPath)
	if st := dataPath.HealthStats(); st.Down != 1 {
		t.Fatalf("replica came back without a probe: %+v", st)
	}

	// Fail: with replica 0 dead too there is nothing to fail over to.
	replica0.Kill()
	_, _, err := dataPath.ReachShares(ctx, f, clauses)
	if ue := wantErr[*UnavailableError](t, err); !reflect.DeepEqual(ue.Down, urls) {
		t.Fatalf("UnavailableError names %v, want every replica %v", ue.Down, urls)
	}

	// Kill-and-restart: rebind the same addresses, probe, and both proxies
	// serve the exact answer again from either replica.
	replica0.Restart()
	replica1.Restart()
	clock.Advance(time.Second)
	for _, p := range proxies {
		p.ProbeNow(ctx)
		if st := p.HealthStats(); st.Down != 0 {
			t.Fatalf("proxy still has a replica down after restart and probe: %+v", st)
		}
		served := make([]int64, 2)
		for k := 0; k < 2; k++ {
			for i, n := range exact(fmt.Sprintf("post-restart estimate %d", k), p) {
				served[i] += n
			}
		}
		if !reflect.DeepEqual(served, []int64{1, 1}) {
			t.Fatalf("post-restart estimates sent RPCs %v per replica, want one each", served)
		}
	}
}

// TestProxyAllShardsDown: with every replica dead there is nothing to
// fail over to, so the proxy refuses with *UnavailableError naming every
// replica rather than fabricate — and keeps refusing, without an RPC, until
// a probe finds a replica back. Then the answers are exact again.
func TestProxyAllShardsDown(t *testing.T) {
	cfg := smallConfig(1)
	ctx := context.Background()
	srvA, b := replicaHandler(t, cfg)
	srvB, _ := replicaHandler(t, cfg)
	a, bb := startRestartableShard(t, srvA), startRestartableShard(t, srvB)
	urls := []string{a.URL(), bb.URL()}
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{Sleep: immediateSleep})
	f := population.DemoFilter{Countries: []string{"ES"}}
	clauses := [][]interest.ID{{1, 2}, {3}}
	wantD, wantU, _ := b.ReachShares(ctx, f, clauses) // a LocalBackend never fails

	a.Kill()
	bb.Kill()
	for k := 0; k < 2; k++ {
		before := rpcCounts(proxy)
		_, _, err := proxy.ReachShares(ctx, f, clauses)
		ue := wantErr[*UnavailableError](t, err)
		if !reflect.DeepEqual(ue.Down, urls) {
			t.Fatalf("estimate %d: UnavailableError names %v, want every replica %v", k, ue.Down, urls)
		}
		if got := sum(rpcDelta(proxy, before)); k == 1 && got != 0 {
			t.Fatalf("estimate %d sent %d RPCs to replicas marked down", k, got)
		}
	}

	bb.Restart()
	proxy.ProbeNow(ctx)
	if st := proxy.HealthStats(); st.Up != 1 || !st.Shards[1].Up {
		t.Fatalf("probe did not revive replica 1: %+v", st)
	}
	for k := 0; k < 2; k++ {
		demo, union, err := proxy.ReachShares(ctx, f, clauses)
		if err != nil || demo != wantD || union != wantU {
			t.Fatalf("estimate %d after the probe = (%v, %v, %v), want (%v, %v)", k, demo, union, err, wantD, wantU)
		}
	}
}

// TestProbeRejectsWrongIdentity: a live replica serving another world — a
// different catalog, population or seed — must be treated as down, not
// asked. A replica of the proxy's own world passes.
func TestProbeRejectsWrongIdentity(t *testing.T) {
	cfg := smallConfig(1)
	otherCatalog, otherPop, otherSeed := cfg, cfg, cfg
	otherCatalog.Population.CatalogSize = 500
	otherPop.Population.Population++
	otherSeed.Population.Seed++
	for _, tc := range []struct {
		name    string
		cfg     worldcfg.Config
		verdict string
	}{
		{"catalog", otherCatalog, "catalog size"},
		{"population", otherPop, "total population"},
		{"seed", otherSeed, "world digest"},
	} {
		srv, _ := replicaHandler(t, tc.cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		proxy := newTestProxy(t, cfg, []string{ts.URL}, ProxyConfig{})
		proxy.ProbeNow(context.Background())
		if st := proxy.HealthStats(); st.Down != 1 || !strings.Contains(st.Shards[0].LastError, tc.verdict) {
			t.Fatalf("%s mismatch not detected on its %s: %+v", tc.name, tc.verdict, st)
		}
	}

	same, _ := replicaHandler(t, cfg)
	ts := httptest.NewServer(same)
	defer ts.Close()
	proxy := newTestProxy(t, cfg, []string{ts.URL}, ProxyConfig{})
	proxy.ProbeNow(context.Background())
	if st := proxy.HealthStats(); st.Down != 0 {
		t.Fatalf("a replica of the proxy's world was refused: %+v", st)
	}
}

// TestProbeKeepsFlappingReplicaDown: a replica whose health endpoint
// answers while its reach RPCs hang past the per-RPC Timeout must stay out
// of rotation. The first estimate, its turn, loses it to the timeout and
// fails over. Each later probe passes the identity check but fails the
// reach check, so the replica stays down with a LastError naming that
// check, and estimates send it no RPC: its only reach requests are the
// probes'. Once its reach RPCs answer again, one probe brings it back and
// rotation reaches it.
func TestProbeKeepsFlappingReplicaDown(t *testing.T) {
	cfg := smallConfig(3)
	ctx := context.Background()
	srv, local := replicaHandler(t, cfg)
	var hang atomic.Bool
	var reachRPCs atomic.Int64
	hang.Store(true)
	flapping := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == shardPathReach {
			reachRPCs.Add(1)
			if hang.Load() {
				hungHandler().ServeHTTP(w, r)
				return
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(flapping.Close)
	healthy := httptest.NewServer(srv)
	t.Cleanup(healthy.Close)
	proxy := newTestProxy(t, cfg, []string{flapping.URL, healthy.URL}, ProxyConfig{
		Timeout: 50 * time.Millisecond, Sleep: immediateSleep,
	})

	f := population.DemoFilter{Countries: []string{"US"}, AgeMin: 21}
	clauses := [][]interest.ID{{2, 5}, {8}}
	wantD, wantU, _ := local.ReachShares(ctx, f, clauses) // a LocalBackend never fails
	estimate := func(what string) []int64 {
		t.Helper()
		before := rpcCounts(proxy)
		demo, union, err := proxy.ReachShares(ctx, f, clauses)
		if err != nil || demo != wantD || union != wantU {
			t.Fatalf("%s = (%v, %v, %v), want (%v, %v)", what, demo, union, err, wantD, wantU)
		}
		return rpcDelta(proxy, before)
	}

	if got := estimate("estimate 0"); got[0] != 1 {
		t.Fatalf("estimate 0 sent the flapping replica %d RPCs, want its one attempt", got[0])
	}
	if st := proxy.HealthStats(); st.Shards[0].Up {
		t.Fatalf("the timed-out replica is still up: %+v", st.Shards[0])
	}
	for round := 0; round < 3; round++ {
		before := reachRPCs.Load()
		proxy.ProbeNow(ctx)
		if n := reachRPCs.Load() - before; n != 1 {
			t.Fatalf("probe round %d sent the flapping replica %d reach RPCs, want its one reach check", round, n)
		}
		st := proxy.HealthStats()
		if sh := st.Shards[0]; sh.Up || !strings.Contains(sh.LastError, "reach check") {
			t.Fatalf("probe round %d: the flapping replica should stay down on its reach check: %+v", round, sh)
		}
		if !st.Shards[1].Up {
			t.Fatalf("probe round %d marked the healthy replica down: %+v", round, st.Shards[1])
		}
		for k := 0; k < 2; k++ {
			if got := estimate(fmt.Sprintf("round %d estimate %d", round, k)); got[0] != 0 {
				t.Fatalf("round %d estimate %d sent the down replica %d RPCs", round, k, got[0])
			}
		}
	}

	hang.Store(false)
	proxy.ProbeNow(ctx)
	if st := proxy.HealthStats(); st.Down != 0 {
		t.Fatalf("a probe did not bring the recovered replica back: %+v", st.Shards)
	}
	var served int64
	for k := 0; k < 2; k++ {
		served += estimate(fmt.Sprintf("estimate %d after recovery", k))[0]
	}
	if served != 1 {
		t.Fatalf("rotation sent the recovered replica %d of 2 estimates, want 1", served)
	}
}

// TestStartHealthRecoversShard drives the production probe loop (wall-clock
// ticker) across a kill/restart cycle.
func TestStartHealthRecoversShard(t *testing.T) {
	cfg := smallConfig(1)
	s0, _ := replicaHandler(t, cfg)
	shard := startRestartableShard(t, s0)
	proxy := newTestProxy(t, cfg, []string{shard.URL()}, ProxyConfig{
		ProbeInterval: 2 * time.Millisecond,
		Sleep:         func(ctx context.Context, d time.Duration) error { return nil },
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proxy.StartHealth(ctx)

	shard.Kill()
	waitFor(t, func() bool { return proxy.HealthStats().Down == 1 })
	shard.Restart()
	waitFor(t, func() bool { return proxy.HealthStats().Down == 0 })
}

// TestProbeAbortedByCallerKeepsVerdict: a probe round whose context ends
// (StartHealth's loop stopping) must not mark live replicas down — the
// aborted probe says nothing about them.
func TestProbeAbortedByCallerKeepsVerdict(t *testing.T) {
	cfg := smallConfig(1)
	urls := startReplicas(t, cfg, 2, noWrap)
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

func TestUnavailableErrorMessage(t *testing.T) {
	e := &UnavailableError{Down: []string{"http://a", "http://b"}}
	msg := e.Error()
	if !errors.As(error(e), new(*UnavailableError)) {
		t.Fatal("errors.As should match")
	}
	for _, want := range []string{"2 replica(s) down", "http://a", "http://b"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}
