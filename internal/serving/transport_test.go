package serving

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

// countingTransport counts round trips by URL host and path.
type countingTransport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	calls map[string]map[string]int // host -> path -> round trips
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	if c.calls[r.URL.Host] == nil {
		c.calls[r.URL.Host] = map[string]int{}
	}
	c.calls[r.URL.Host][r.URL.Path]++
	c.mu.Unlock()
	return c.base.RoundTrip(r)
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// holdFirst makes the first n requests wait until all n have arrived, so n
// callers starting together hold n connections at once: each opens its own,
// and none can be handed an idle connection another caller's early answer
// just returned (the Go transport's hand-off would leave that caller to dial
// once more). The wait gives up after 10s so a short flood cannot hang.
func holdFirst(n int, h http.Handler) http.Handler {
	var arrived atomic.Int64
	all := make(chan struct{})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k := arrived.Add(1); k <= int64(n) {
			if k == int64(n) {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestReachSharesOneRPCPerShard: a reach estimate's two factor shares travel
// in ONE data RPC per shard — the fused reach-shares RPC — counted by a
// RoundTripper injected through ProxyConfig.Client.
func TestReachSharesOneRPCPerShard(t *testing.T) {
	cfg := smallConfig(1)
	const shards, estimates = 3, 10
	urls := startShardTopology(t, cfg, shards)
	ct := &countingTransport{base: NewShardTransport(), calls: map[string]map[string]int{}}
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{Client: &http.Client{Transport: ct}})
	r := rng.New(1).Derive(t.Name())
	for k := 0; k < estimates; k++ {
		proxy.ReachShares(context.Background(), randomFilter(r), randomClauses(r, cfg.Population.CatalogSize))
	}
	if len(ct.calls) != shards {
		t.Fatalf("RPCs reached %d hosts, want %d: %v", len(ct.calls), shards, ct.calls)
	}
	for host, paths := range ct.calls {
		if len(paths) != 1 || paths[shardPathReach] != estimates {
			t.Fatalf("shard %s served %v for %d estimates, want only %d %s RPCs",
				host, paths, estimates, estimates, shardPathReach)
		}
	}
}

// TestDefaultProxyClientReusesConnections: through the default proxy client,
// 8 concurrent callers × 200 estimates open at most 8 connections per shard
// — one per caller, kept alive across estimates — counted at each shard's
// listener. The pooled transport is what bounds it: a pool of 2 idle
// connections per host closes and re-dials most of them. The callers' first
// estimates are held until all have arrived (holdFirst), which makes the
// bound exact rather than subject to the transport's start-up hand-off.
func TestDefaultProxyClientReusesConnections(t *testing.T) {
	cfg := smallConfig(1)
	const shards, callers, perCaller = 2, 8, 200
	urls := make([]string, shards)
	listeners := make([]*countingListener, shards)
	for i := range urls {
		srv, _ := shardHandler(t, cfg, i, shards)
		ts := httptest.NewUnstartedServer(holdFirst(callers, srv))
		listeners[i] = &countingListener{Listener: ts.Listener}
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c)).Derive(t.Name())
			for k := 0; k < perCaller; k++ {
				proxy.ReachShares(context.Background(), randomFilter(r), randomClauses(r, cfg.Population.CatalogSize))
			}
		}(c)
	}
	wg.Wait()
	for i, l := range listeners {
		if n := l.accepted.Load(); n < 1 || n > callers {
			t.Fatalf("shard %d accepted %d connections for %d concurrent callers × %d estimates, want 1..%d",
				i, n, callers, perCaller, callers)
		}
	}
}

// TestReachSharesComeFromOneLiveSet: under PolicyRenormalize both factors of
// an estimate are folded over the SAME shards. Shard 1 answers its first
// estimate with shares far from shard 0's and then dies: that estimate folds
// both of its shares in, and every later one takes both factors from the
// survivor alone — never one factor from each set, which two sequential
// gathers produce when a shard dies between them.
func TestReachSharesComeFromOneLiveSet(t *testing.T) {
	cfg := smallConfig(42)
	s0, b0 := shardHandler(t, cfg, 0, 2)
	shard0 := httptest.NewServer(s0)
	t.Cleanup(shard0.Close)
	var answered atomic.Bool
	shard1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == shardPathReach && answered.CompareAndSwap(false, true) {
			json.NewEncoder(w).Encode(sharePair{Demo: 0.25, Union: 0.5})
			return
		}
		http.Error(w, "shard 1 is gone", http.StatusInternalServerError)
	}))
	t.Cleanup(shard1.Close)
	proxy := newTestProxy(t, cfg, []string{shard0.URL, shard1.URL}, ProxyConfig{
		Policy: PolicyRenormalize, Sleep: immediateSleep,
	})

	f := population.DemoFilter{Countries: []string{"US"}, AgeMin: 18, AgeMax: 30}
	clauses := [][]interest.ID{{1, 2}, {3}}
	liveD, liveU, _ := b0.ReachShares(context.Background(), f, clauses) // a LocalBackend never fails
	both := func(s0, s1 float64) float64 {
		return foldShares(proxy.weights, func(i int) float64 { return []float64{s0, s1}[i] })
	}

	demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
	if err != nil {
		t.Fatal(err)
	}
	if demo != both(liveD, 0.25) || union != both(liveU, 0.5) {
		t.Fatalf("estimate while shard 1 answers = (%v, %v), want both shards folded (%v, %v)",
			demo, union, both(liveD, 0.25), both(liveU, 0.5))
	}
	if proxy.Degraded() {
		t.Fatal("degraded before shard 1 failed")
	}
	for k := 0; k < 3; k++ {
		demo, union, err = proxy.ReachShares(context.Background(), f, clauses)
		if err != nil {
			t.Fatal(err)
		}
		if demo != liveD || union != liveU {
			t.Fatalf("estimate %d after shard 1 died = (%v, %v), want the survivor's (%v, %v)",
				k, demo, union, liveD, liveU)
		}
		if !proxy.Degraded() {
			t.Fatalf("estimate %d after shard 1 died: not degraded", k)
		}
	}
}
