package serving

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
)

func immediateSleep(ctx context.Context, d time.Duration) error { return nil }

// TestProxyReplicaFailoverExact is the acceptance property for replication
// under hedging: killing one of three replicas mid-run keeps every answer
// bit-identical to LocalBackend, while HealthStats records the dead replica
// and at least one hedge win (the race escalates off the corpse onto a
// survivor). Killing a second replica leaves the last one answering every
// estimate, still exactly.
func TestProxyReplicaFailoverExact(t *testing.T) {
	cfg := smallConfig(7)
	srvA, b := replicaHandler(t, cfg)
	srvB, _ := replicaHandler(t, cfg)
	srvC, _ := replicaHandler(t, cfg)
	a, bb, c := startRestartableShard(t, srvA), startRestartableShard(t, srvB), startRestartableShard(t, srvC)
	clauses := [][]interest.ID{{1, 2}, {3}}
	want := unionShare(t, b, clauses)

	// The hedge timer fires only once the killed replica has refused an
	// attempt (before the kill it waits out the race). Fired at once, the
	// hedge can win before the dead replica's dial returns, and then no
	// call ever sees the replica fail: nothing marks it down.
	const hedgeAfter = time.Microsecond
	rt := &signalFailures{base: NewShardTransport(), host: strings.TrimPrefix(a.URL(), "http://"),
		failed: make(chan struct{}, 1)}
	proxy := newTestProxy(t, cfg, []string{a.URL(), bb.URL(), c.URL()}, ProxyConfig{
		HedgeAfter: hedgeAfter,
		Client:     &http.Client{Transport: rt},
		Sleep: func(ctx context.Context, d time.Duration) error {
			select {
			case <-rt.failed:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if got := unionShare(t, proxy, clauses); got != want {
		t.Fatalf("healthy replicated proxy share = %v, want %v", got, want)
	}

	// Kill replica a mid-run. Every estimate — each replica's turn comes
	// round — must keep the exact answer: the race fails over to a
	// surviving replica, which is the byte-identical world.
	a.Kill()
	for trial := 0; trial < 5; trial++ {
		if got := unionShare(t, proxy, clauses); got != want {
			t.Fatalf("trial %d: share after replica kill = %v, want %v — replica failover must be exact",
				trial, got, want)
		}
	}
	// A race loser delivers its verdict on its own goroutine after the
	// winner has answered; give the last one time to land.
	waitFor(t, func() bool { return proxy.HealthStats().Down > 0 })
	st := proxy.HealthStats()
	if st.Down != 1 || st.Shards[0].Up || st.Shards[0].LastError == "" {
		t.Fatalf("replica a dead, stats say: %+v", st)
	}
	if st.Hedged < 1 || st.HedgeWins < 1 {
		t.Fatalf("expected at least one hedge and one hedge win after the kill, got hedged=%d wins=%d",
			st.Hedged, st.HedgeWins)
	}

	// Two replicas dead: the last one answers every estimate, exactly.
	bb.Kill()
	for trial := 0; trial < 5; trial++ {
		if got := unionShare(t, proxy, clauses); got != want {
			t.Fatalf("trial %d with two replicas dead = %v, want %v", trial, got, want)
		}
	}
	waitFor(t, func() bool { return proxy.HealthStats().Down == 2 })
	if st := proxy.HealthStats(); !st.Shards[2].Up {
		t.Fatalf("the last live replica was marked down: %+v", st)
	}
}

// signalFailures is a shard transport that signals failed (without
// blocking) whenever a round trip to host ends in a transport error, so a
// test's hedge timer can wait until a dead replica has refused once. With
// hold set, it then keeps that error until hold is closed.
type signalFailures struct {
	base   http.RoundTripper
	host   string
	failed chan struct{}
	hold   chan struct{}
}

func (s *signalFailures) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := s.base.RoundTrip(r)
	if err != nil && r.URL.Host == s.host {
		select {
		case s.failed <- struct{}{}:
		default:
		}
		if s.hold != nil {
			<-s.hold
		}
	}
	return resp, err
}

// TestProxyHedgeLoserReportsRefusal: a race loser that already saw its
// replica refuse a connection still marks the replica down. The dead
// primary's transport refuses and holds the refusal; the hedge then fires
// and the live replica wins, canceling the race. Only then is the refusal
// delivered: the cancellation itself marks nothing, but the refusal is
// proof the replica is gone and must not be dropped with the lost race.
func TestProxyHedgeLoserReportsRefusal(t *testing.T) {
	cfg := smallConfig(1)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // its port now refuses connections
	liveSrv, b0 := replicaHandler(t, cfg)
	live := httptest.NewServer(liveSrv)
	t.Cleanup(live.Close)

	const hedgeAfter = time.Microsecond
	rt := &signalFailures{base: NewShardTransport(), host: strings.TrimPrefix(dead.URL, "http://"),
		failed: make(chan struct{}, 1), hold: make(chan struct{})}
	proxy, err := NewProxyBackend(cfg, ProxyConfig{
		URLs:       []string{dead.URL, live.URL},
		HedgeAfter: hedgeAfter,
		Client:     &http.Client{Transport: rt},
		Sleep: func(ctx context.Context, d time.Duration) error {
			// The hedge fires once the primary has refused.
			select {
			case <-rt.failed:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clauses := [][]interest.ID{{1, 3}}
	want := unionShare(t, b0, clauses)
	if got := unionShare(t, proxy, clauses); got != want {
		t.Fatalf("hedged share = %v, want %v", got, want)
	}
	if st := proxy.HealthStats(); st.Down != 0 {
		t.Fatalf("the held refusal reached the proxy before the hedge won: %+v", st)
	}
	close(rt.hold) // the race is over: deliver the loser's refusal
	waitFor(t, func() bool { return proxy.HealthStats().Down > 0 })
	st := proxy.HealthStats()
	if st.Down != 1 || st.HedgeWins != 1 {
		t.Fatalf("the refusing primary should be the one down replica, lost to one hedge win: %+v", st)
	}
	if sh := st.Shards[0]; sh.Up || !strings.Contains(sh.LastError, "refused") {
		t.Fatalf("dead primary not recorded with its refusal: %+v", sh)
	}
}

// TestProxyHedgePrimaryWins: the hedge fires (slow primary) but the primary
// still answers first — the hedged attempt must lose cleanly: canceled, no
// down mark on either replica, no hedge win recorded.
func TestProxyHedgePrimaryWins(t *testing.T) {
	cfg := smallConfig(1)
	s0, b0 := replicaHandler(t, cfg)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond) // long enough for the hedge to launch, short enough to win
		s0.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	hung := httptest.NewServer(hungHandler())
	t.Cleanup(hung.Close)

	proxy, err := NewProxyBackend(cfg, ProxyConfig{
		URLs:       []string{slow.URL, hung.URL},
		HedgeAfter: time.Microsecond,
		Sleep:      immediateSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	clauses := [][]interest.ID{{1}, {2}}
	want := unionShare(t, b0, clauses)
	if got := unionShare(t, proxy, clauses); got != want {
		t.Fatalf("hedged share = %v, want %v", got, want)
	}
	st := proxy.HealthStats()
	if st.Hedged < 1 {
		t.Fatalf("hedge never launched against a 30ms primary: %+v", st)
	}
	if st.HedgeWins != 0 {
		t.Fatalf("the hung hedge cannot have won: %+v", st)
	}
	// Give the canceled loser a moment to deliver its verdict, then check it
	// was not punished.
	time.Sleep(50 * time.Millisecond)
	st = proxy.HealthStats()
	if st.Down != 0 {
		t.Fatalf("losing a hedge race must not mark the replica down: %+v", st)
	}
}

// TestProxyReplicaKilledMidHedge: the hedge TARGET dies between the race
// starting and the hedge delay elapsing. The race must step over the corpse
// to the next live replica and still win, with the kill recorded in
// HealthStats.
func TestProxyReplicaKilledMidHedge(t *testing.T) {
	cfg := smallConfig(1)
	hung := httptest.NewServer(hungHandler())
	t.Cleanup(hung.Close)
	victimSrv, _ := replicaHandler(t, cfg)
	victim := startRestartableShard(t, victimSrv)
	liveSrv, b0 := replicaHandler(t, cfg)
	live := httptest.NewServer(liveSrv)
	t.Cleanup(live.Close)

	// The injected Sleep kills the hedge target the first time the proxy
	// sleeps — the hedge arm, the proxy's only sleep — so the hedge
	// launches at a freshly dead replica. Later hedge-delay sleeps block
	// until the race ends: were the re-armed timer to fire at once, it
	// could launch the live replica before the victim's dial fails, and the
	// victim's call would then be canceled by the live win with no failure
	// seen, instead of marking it down.
	const hedgeAfter = time.Microsecond
	var sleeps atomic.Int32
	proxy, err := NewProxyBackend(cfg, ProxyConfig{
		URLs:       []string{hung.URL, victim.URL(), live.URL},
		HedgeAfter: hedgeAfter,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if sleeps.Add(1) == 1 {
				victim.Kill()
				return nil
			}
			<-ctx.Done()
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clauses := [][]interest.ID{{1, 3}}
	want := unionShare(t, b0, clauses)
	if got := unionShare(t, proxy, clauses); got != want {
		t.Fatalf("share with hedge target killed mid-race = %v, want %v", got, want)
	}
	st := proxy.HealthStats()
	if st.Hedged < 2 || st.HedgeWins < 1 {
		t.Fatalf("race should have escalated past the corpse to a winning hedge: %+v", st)
	}
	if st.Down != 1 {
		t.Fatalf("the killed hedge target should be the one down replica: %+v", st)
	}
	if st.Failovers != 0 {
		t.Fatalf("hedge-mode escalations must not count as sequential failovers: %+v", st)
	}
}

// TestProbeRejectsWrongWorldReplica: replica-equivalence verdicts. A
// replica URL whose health answer names another world must be marked down
// by the probe and excluded from routing, leaving answers exact.
func TestProbeRejectsWrongWorldReplica(t *testing.T) {
	cfg := smallConfig(1)
	good, b0 := replicaHandler(t, cfg)
	goodTS := httptest.NewServer(good)
	t.Cleanup(goodTS.Close)

	// Passes every identity check EXCEPT the world digest: it claims the
	// right catalog size and population of another world, whose shares
	// differ, so the probe must refuse it.
	impostor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != shardPathHealth {
			http.Error(w, "data RPC routed to an unproved replica", http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(ShardHealthInfo{
			Status: "ok", TotalPopulation: cfg.Population.Population,
			CatalogSize: cfg.Population.CatalogSize, World: "another world",
		})
	}))
	t.Cleanup(impostor.Close)

	proxy := newTestProxy(t, cfg, []string{goodTS.URL, impostor.URL}, ProxyConfig{})
	proxy.ProbeNow(context.Background())
	st := proxy.HealthStats()
	if st.Up != 1 || st.Down != 1 {
		t.Fatalf("probe verdicts: %+v", st)
	}
	if !st.Shards[0].Up {
		t.Fatalf("good replica marked down: %+v", st.Shards[0])
	}
	if st.Shards[1].Up || !strings.Contains(st.Shards[1].LastError, "world digest") {
		t.Fatalf("wrong-world replica should be down with a world verdict: %+v", st.Shards[1])
	}
	clauses := [][]interest.ID{{2}, {4}}
	for k := 0; k < 2; k++ {
		if got, want := unionShare(t, proxy, clauses), unionShare(t, b0, clauses); got != want {
			t.Fatalf("estimate %d with impostor excluded = %v, want %v", k, got, want)
		}
	}
}

// TestProbeRejectsOtherSeedReplica: a replica built with Seed+1 passes
// every structural check — catalog size, total population — yet serves
// another world's shares. The world digest refuses
// it: the probe marks it down, and no estimate reaches it although it is
// the preferred replica, so every answer is the proxy's world's. A replica
// differing only in fields that change no answer (cache capacity,
// Disabled, Parallelism) passes.
func TestProbeRejectsOtherSeedReplica(t *testing.T) {
	cfg := smallConfig(1)
	ctx := context.Background()
	good, b0 := replicaHandler(t, cfg)
	otherSeed := cfg
	otherSeed.Population.Seed++
	bad, b1 := replicaHandler(t, otherSeed)
	f := population.DemoFilter{Countries: []string{"US"}}
	clauses := [][]interest.ID{{1, 2}, {3}}
	wantD, wantU, _ := b0.ReachShares(ctx, f, clauses) // a LocalBackend never fails
	if _, u, _ := b1.ReachShares(ctx, f, clauses); u == wantU {
		t.Fatalf("seeds %d and %d give the same union share %v", cfg.Population.Seed, otherSeed.Population.Seed, u)
	}
	goodTS, badTS := httptest.NewServer(good), httptest.NewServer(bad)
	t.Cleanup(goodTS.Close)
	t.Cleanup(badTS.Close)
	proxy := newTestProxy(t, cfg, []string{badTS.URL, goodTS.URL}, ProxyConfig{})
	proxy.ProbeNow(ctx)
	if st := proxy.HealthStats(); st.Shards[0].Up || !strings.Contains(st.Shards[0].LastError, "world digest") || !st.Shards[1].Up {
		t.Fatalf("the Seed+1 replica should be the one down, on its world digest: %+v", st.Shards)
	}
	for k := 0; k < 5; k++ {
		demo, union, err := proxy.ReachShares(ctx, f, clauses)
		if err != nil || demo != wantD || union != wantU {
			t.Fatalf("estimate %d = (%v, %v, %v), want the proxy world's (%v, %v)", k, demo, union, err, wantD, wantU)
		}
	}
	if n := proxy.HealthStats().Shards[0].RPCs; n != 0 {
		t.Fatalf("%d estimates reached the Seed+1 replica", n)
	}

	harmless := cfg
	harmless.Cache.Capacity = 7
	harmless.Cache.Disabled = true
	harmless.Parallelism = 3
	same, _ := replicaHandler(t, harmless)
	sameTS := httptest.NewServer(same)
	t.Cleanup(sameTS.Close)
	proxy2 := newTestProxy(t, cfg, []string{sameTS.URL}, ProxyConfig{})
	proxy2.ProbeNow(ctx)
	if st := proxy2.HealthStats(); st.Down != 0 {
		t.Fatalf("a replica differing only in answer-neutral fields was refused: %+v", st.Shards)
	}
}
