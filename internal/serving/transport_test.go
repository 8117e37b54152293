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

// holdFirst returns middleware that makes the first n requests, across
// every handler it wraps, wait until all n have arrived, so n callers
// starting together hold n connections at once: each opens its own, and
// none can be handed an idle connection another caller's early answer just
// returned (the Go transport's hand-off would leave that caller to dial
// once more). Sharing one count across the shards matters because rotation
// splits the callers' first estimates between them. The wait gives up
// after 10s so a short flood cannot hang.
func holdFirst(n int) func(http.Handler) http.Handler {
	var arrived atomic.Int64
	all := make(chan struct{})
	return func(h http.Handler) http.Handler {
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
}

// total is the number of round trips counted so far.
func (c *countingTransport) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, paths := range c.calls {
		for _, k := range paths {
			n += k
		}
	}
	return n
}

// TestReachSharesOneRPCPerShard: a reach estimate is ONE data RPC — the
// fused reach-shares RPC to one shard — and rotation hands every shard the
// same number of them: over N·k estimates each of the N shards serves
// exactly k. Round trips are counted by a RoundTripper injected through
// ProxyConfig.Client, and every answer is LocalBackend's.
func TestReachSharesOneRPCPerShard(t *testing.T) {
	cfg := smallConfig(1)
	const shards, perShard = 3, 10
	local, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	urls := startShardTopology(t, cfg, shards)
	ct := &countingTransport{base: NewShardTransport(), calls: map[string]map[string]int{}}
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{Client: &http.Client{Transport: ct}})
	r := rng.New(1).Derive(t.Name())
	for k := 0; k < shards*perShard; k++ {
		f, clauses := randomFilter(r), randomClauses(r, cfg.Population.CatalogSize)
		before := ct.total()
		demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
		if err != nil {
			t.Fatal(err)
		}
		if n := ct.total() - before; n != 1 {
			t.Fatalf("estimate %d took %d RPCs, want 1", k, n)
		}
		wantD, wantU, _ := local.ReachShares(context.Background(), f, clauses) // a LocalBackend never fails
		if demo != wantD || union != wantU {
			t.Fatalf("estimate %d = (%v, %v), LocalBackend (%v, %v)", k, demo, union, wantD, wantU)
		}
	}
	if len(ct.calls) != shards {
		t.Fatalf("RPCs reached %d hosts, want %d: %v", len(ct.calls), shards, ct.calls)
	}
	for host, paths := range ct.calls {
		if len(paths) != 1 || paths[shardPathReach] != perShard {
			t.Fatalf("shard %s served %v over %d estimates, want exactly %d %s RPCs",
				host, paths, shards*perShard, perShard, shardPathReach)
		}
	}
}

// TestDefaultProxyClientReusesConnections: through the default proxy client,
// 8 concurrent callers × 200 estimates open at most 8 connections per shard
// — no more than the RPCs that can be in flight to it at once, each kept
// alive across estimates — counted at each shard's listener. The pooled
// transport is what bounds it: a pool of 2 idle connections per host closes
// and re-dials most of them. The callers' first estimates are held until all
// have arrived, across both shards (holdFirst), which makes the bound exact
// rather than subject to the transport's start-up hand-off.
func TestDefaultProxyClientReusesConnections(t *testing.T) {
	cfg := smallConfig(1)
	const shards, callers, perCaller = 2, 8, 200
	urls := make([]string, shards)
	listeners := make([]*countingListener, shards)
	hold := holdFirst(callers)
	for i := range urls {
		srv, _ := shardHandler(t, cfg, i, shards)
		ts := httptest.NewUnstartedServer(hold(srv))
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
// an estimate come from ONE shard, unchanged. Shard 1 answers its first
// estimate with shares far from shard 0's and then dies: that estimate
// returns shard 1's pair whole — nothing is folded with shard 0's — and
// after the death every estimate, including those whose turn was shard 1's,
// takes both factors from the survivor, stamped degraded.
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

	// Rotation: estimate 0 is shard 0's, estimate 1 shard 1's.
	for k, want := range []sharePair{{liveD, liveU}, {0.25, 0.5}} {
		demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
		if err != nil {
			t.Fatal(err)
		}
		if demo != want.Demo || union != want.Union {
			t.Fatalf("estimate %d while both shards answer = (%v, %v), want shard %d's pair (%v, %v) unchanged",
				k, demo, union, k, want.Demo, want.Union)
		}
		if proxy.Degraded() {
			t.Fatalf("estimate %d: degraded before shard 1 failed", k)
		}
	}
	// Estimate 2 is shard 0's turn; shard 1's death surfaces at estimate 3,
	// which fails over to shard 0.
	for k := 2; k < 6; k++ {
		demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
		if err != nil {
			t.Fatal(err)
		}
		if demo != liveD || union != liveU {
			t.Fatalf("estimate %d after shard 1 died = (%v, %v), want the survivor's (%v, %v)",
				k, demo, union, liveD, liveU)
		}
		if k > 2 && !proxy.Degraded() {
			t.Fatalf("estimate %d after shard 1 died: not degraded", k)
		}
	}
}
