package serving

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
)

func zeroJitter(replica, attempt int) float64 { return 0 }

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
	// call ever sees the replica fail: nothing marks it down. Retry sleeps
	// return at once.
	const hedgeAfter = time.Microsecond
	rt := &signalFailures{base: NewShardTransport(), host: strings.TrimPrefix(a.URL(), "http://"),
		failed: make(chan struct{}, 1)}
	proxy := newTestProxy(t, cfg, []string{a.URL(), bb.URL(), c.URL()}, ProxyConfig{
		MaxRetries: 1,
		HedgeAfter: hedgeAfter,
		Jitter:     zeroJitter,
		Client:     &http.Client{Transport: rt},
		Sleep: func(ctx context.Context, d time.Duration) error {
			if d != hedgeAfter {
				return nil
			}
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
// test's hedge timer can wait until a dead replica has refused once.
type signalFailures struct {
	base   http.RoundTripper
	host   string
	failed chan struct{}
}

func (s *signalFailures) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := s.base.RoundTrip(r)
	if err != nil && r.URL.Host == s.host {
		select {
		case s.failed <- struct{}{}:
		default:
		}
	}
	return resp, err
}

// TestProxyHedgeLoserReportsRefusal: a race loser that already saw its
// replica refuse a connection still marks the replica down. The dead
// primary refuses attempt 0 and parks in its retry backoff; the hedge then
// fires and the live replica wins, canceling the primary mid-backoff. The
// cancellation keeps the breaker neutral, but the refusal it already saw is
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
		failed: make(chan struct{}, 1)}
	proxy, err := NewProxyBackend(cfg, ProxyConfig{
		URLs:       []string{dead.URL, live.URL},
		HedgeAfter: hedgeAfter,
		MaxRetries: 1, RetryBase: time.Millisecond,
		Jitter:  zeroJitter,
		Breaker: BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
		Client:  &http.Client{Transport: rt},
		Sleep: func(ctx context.Context, d time.Duration) error {
			if d == hedgeAfter {
				// The hedge fires once the primary has refused.
				select {
				case <-rt.failed:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			// The retry backoff outlasts the race.
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
		t.Fatalf("hedged share = %v, want %v", got, want)
	}
	waitFor(t, func() bool { return proxy.HealthStats().Down > 0 })
	st := proxy.HealthStats()
	if st.Down != 1 || st.HedgeWins != 1 {
		t.Fatalf("the refusing primary should be the one down replica, lost to one hedge win: %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.Replica == 0 && (sh.Up || !strings.Contains(sh.LastError, "refused")) {
			t.Fatalf("dead primary not recorded with its refusal: %+v", sh)
		}
		if sh.Breaker != "closed" {
			t.Fatalf("replica %d breaker %s — a canceled loser must stay a neutral breaker verdict", sh.Replica, sh.Breaker)
		}
	}
}

// TestProxyHedgePrimaryWins: the hedge fires (slow primary) but the primary
// still answers first — the hedged attempt must lose cleanly: canceled, no
// breaker penalty (threshold 1 would trip on ANY failure verdict), no down
// mark, no hedge win recorded.
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
		Breaker:    BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour},
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
	// Give the canceled loser a moment to deliver its (neutral) verdict, then
	// check it was not punished.
	time.Sleep(50 * time.Millisecond)
	st = proxy.HealthStats()
	if st.Down != 0 {
		t.Fatalf("losing a hedge race must not mark the replica down: %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.Breaker != "closed" {
			t.Fatalf("replica %d breaker %s — a canceled hedge loser must be a neutral verdict",
				sh.Replica, sh.Breaker)
		}
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
	// sleeps — which is the hedge arm (the hung primary produces no retries) —
	// so the hedge launches at a freshly dead replica. Later hedge-delay
	// sleeps block until the race ends: were the re-armed timer to fire at
	// once, it could launch the live replica before the victim's dial
	// fails, and the victim's call would then be canceled by the live win
	// with no failure seen, instead of marking it down. Retry sleeps return
	// at once.
	const hedgeAfter = time.Microsecond
	var sleeps atomic.Int32
	proxy, err := NewProxyBackend(cfg, ProxyConfig{
		URLs:       []string{hung.URL, victim.URL(), live.URL},
		HedgeAfter: hedgeAfter,
		MaxRetries: 1, RetryBase: time.Millisecond,
		Jitter: zeroJitter,
		Sleep: func(ctx context.Context, d time.Duration) error {
			switch {
			case sleeps.Add(1) == 1:
				victim.Kill()
			case d == hedgeAfter:
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
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

// TestProxyHonorsShardRetryAfter: a shard advertising Retry-After (the
// concurrency gate's load-shed 503, the admission tier's 429) overrides the
// proxy's own backoff schedule — and the advertised wait is capped by the
// caller's remaining deadline budget.
func TestProxyHonorsShardRetryAfter(t *testing.T) {
	cfg := smallConfig(1)
	s0, b0 := replicaHandler(t, cfg)
	var mu sync.Mutex
	shedNext := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		shed := shedNext
		shedNext = false
		mu.Unlock()
		if shed {
			w.Header().Set("Retry-After", "3")
			http.Error(w, "over capacity", http.StatusServiceUnavailable)
			return
		}
		s0.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	var sleptMu sync.Mutex
	var slept []time.Duration
	record := func(ctx context.Context, d time.Duration) error {
		sleptMu.Lock()
		slept = append(slept, d)
		sleptMu.Unlock()
		return nil
	}
	proxy := newTestProxy(t, cfg, []string{ts.URL}, ProxyConfig{
		MaxRetries: 2, Jitter: zeroJitter, Sleep: record,
	})
	clauses := [][]interest.ID{{1}}
	if got, want := unionShare(t, proxy, clauses), unionShare(t, b0, clauses); got != want {
		t.Fatalf("share after honored Retry-After = %v, want %v", got, want)
	}
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("expected one 3s Retry-After wait (not the 1ms backoff), got %v", slept)
	}

	// A Retry-After exceeding the caller's remaining budget is capped to it:
	// sleeping past the deadline would be pure waste.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "60")
		http.Error(w, "over capacity", http.StatusServiceUnavailable)
		return
	}))
	t.Cleanup(always.Close)
	slept = nil
	proxy2 := newTestProxy(t, cfg, []string{always.URL}, ProxyConfig{
		MaxRetries: 1, Jitter: zeroJitter, Sleep: record,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	_, _, err := proxy2.ReachShares(ctx, population.DemoFilter{}, clauses)
	wantErr[*UnavailableError](t, err)
	if len(slept) != 1 || slept[0] <= 0 || slept[0] > 500*time.Millisecond {
		t.Fatalf("60s Retry-After should be capped by the ~500ms ctx budget, got %v", slept)
	}
}

// TestParseRetryAfter pins the one Retry-After parser the proxy and the
// adsapi client share: delay-seconds only, and anything unparseable,
// negative or too large for a time.Duration is "no advice" — a wrapped
// conversion would otherwise sleep until the caller's context ends.
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"3", 3 * time.Second},
		{" 3 ", 3 * time.Second},
		{"", 0},
		{"-1", 0},
		{"abc", 0},
		{"20000000000", 0},
	} {
		if got := ParseRetryAfter(tc.in); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestProxyRetryBudgetExhausted: the per-query budget caps TOTAL retries
// across every replica an estimate tries — a topology-wide brownout cannot
// amplify one query into replicas × MaxRetries requests. Exhaustion is
// tallied and counts as the replica's failure.
func TestProxyRetryBudgetExhausted(t *testing.T) {
	cfg := smallConfig(1)
	brownout := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "brownout", http.StatusInternalServerError)
		}))
	}
	s0, s1 := brownout(), brownout()
	t.Cleanup(s0.Close)
	t.Cleanup(s1.Close)

	var sleptMu sync.Mutex
	sleeps := 0
	proxy := newTestProxy(t, cfg, []string{s0.URL, s1.URL}, ProxyConfig{
		MaxRetries:  5,
		RetryBudget: 2,
		Jitter:      zeroJitter,
		Sleep: func(ctx context.Context, d time.Duration) error {
			sleptMu.Lock()
			sleeps++
			sleptMu.Unlock()
			return nil
		},
	})
	_, _, err := proxy.ReachShares(context.Background(), population.DemoFilter{}, [][]interest.ID{{1}})
	wantErr[*UnavailableError](t, err)
	if sleeps > 2 {
		t.Fatalf("budget 2 allows at most 2 retry sleeps across the replicas, saw %d", sleeps)
	}
	st := proxy.HealthStats()
	if st.RetryBudgetExhausted < 1 {
		t.Fatalf("exhaustion not tallied: %+v", st)
	}
	if st.Down != 2 {
		t.Fatalf("both browned-out replicas should be marked down: %+v", st)
	}
}

// TestDefaultJitterBounds pins the default backoff jitter: deterministic for
// a fixed world seed, spread across draws, and bounded — attempt k waits in
// [base·2^(k-1), 1.5·base·2^(k-1)).
func TestDefaultJitterBounds(t *testing.T) {
	cfg := smallConfig(42)
	mk := func() *ProxyBackend {
		return newTestProxy(t, cfg, []string{"http://127.0.0.1:0"}, ProxyConfig{RetryBase: time.Millisecond})
	}
	proxy := mk()
	base := time.Millisecond
	seen := map[time.Duration]bool{}
	var first time.Duration
	for i := 0; i < 200; i++ {
		w := proxy.backoff(0, 1)
		if i == 0 {
			first = w
		}
		if w < base || w >= base+base/2 {
			t.Fatalf("draw %d: backoff %v outside [%v, %v)", i, w, base, base+base/2)
		}
		seen[w] = true
	}
	if len(seen) < 10 {
		t.Fatalf("200 draws landed on only %d distinct waits — jitter is not spreading the schedule", len(seen))
	}
	if w := proxy.backoff(0, 2); w < 2*base || w >= 3*base {
		t.Fatalf("attempt 2 backoff %v outside [%v, %v)", w, 2*base, 3*base)
	}
	// Same world seed, fresh proxy: the schedule replays identically.
	if w := mk().backoff(0, 1); w != first {
		t.Fatalf("default jitter not deterministic per seed: %v vs %v", w, first)
	}
}
