package serving

import (
	"context"
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

// rpcCounts is each replica's data-RPC count, in HealthStats row order.
func rpcCounts(p *ProxyBackend) []int64 {
	var n []int64
	for _, sh := range p.HealthStats().Shards {
		n = append(n, sh.RPCs)
	}
	return n
}

// rpcDelta is the data RPCs each replica received since before.
func rpcDelta(p *ProxyBackend, before []int64) []int64 {
	after := rpcCounts(p)
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// sum totals counts.
func sum(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// countingListener counts the connections a server accepts and, of those,
// the ones the server has closed.
type countingListener struct {
	net.Listener
	accepted, closed atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	return &closeCountingConn{Conn: c, closed: &l.closed}, nil
}

type closeCountingConn struct {
	net.Conn
	closed *atomic.Int64
	once   sync.Once
}

func (c *closeCountingConn) Close() error {
	c.once.Do(func() { c.closed.Add(1) })
	return c.Conn.Close()
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

// TestReachSharesOneRPCPerShard: a reach estimate is ONE data RPC — the
// fused reach-shares RPC to one shard — and rotation hands every shard the
// same number of them: over N·k estimates each of the N shards serves
// exactly k. RPCs are counted by HealthStats' per-replica RPCs, which see
// framed and HTTP attempts alike, and every answer is LocalBackend's.
func TestReachSharesOneRPCPerShard(t *testing.T) {
	cfg := smallConfig(1)
	const shards, perShard = 3, 10
	local, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	urls := startShardTopology(t, cfg, shards)
	proxy := newTestProxy(t, cfg, urls, ProxyConfig{})
	r := rng.New(1).Derive(t.Name())
	for k := 0; k < shards*perShard; k++ {
		f, clauses := randomFilter(r), randomClauses(r, cfg.Population.CatalogSize)
		before := rpcCounts(proxy)
		demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
		if err != nil {
			t.Fatal(err)
		}
		if n := sum(rpcDelta(proxy, before)); n != 1 {
			t.Fatalf("estimate %d took %d RPCs, want 1", k, n)
		}
		wantD, wantU, _ := local.ReachShares(context.Background(), f, clauses) // a LocalBackend never fails
		if demo != wantD || union != wantU {
			t.Fatalf("estimate %d = (%v, %v), LocalBackend (%v, %v)", k, demo, union, wantD, wantU)
		}
	}
	for i, n := range rpcCounts(proxy) {
		if n != perShard {
			t.Fatalf("shard %d served %d RPCs over %d estimates, want exactly %d",
				i, n, shards*perShard, perShard)
		}
	}
}

// TestDefaultProxyClientReusesConnections: through the default proxy client,
// 8 concurrent callers × 200 estimates open at most 8 connections per shard
// — no more than the RPCs that can be in flight to it at once, each kept
// alive across estimates — counted at each shard's listener. The pools are
// what bound it: the first estimate on each connection upgrades it to reach
// frames, and the proxy's per-replica frame pool (like the transport's idle
// pool, shardIdleConnsPerHost deep) hands it back; a pool of 2 would close
// and re-dial most of them. The callers' first estimates are held until all
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
// estimate with shares far from shard 0's: that estimate returns shard 1's
// pair whole — nothing is folded with shard 0's. Its next three answers are
// 200s whose bodies are not two shares (an old build's JSON pair, one share,
// three shares): each is a returned error, never a number. Then it dies, and
// every estimate, including those whose turn was shard 1's, takes both
// factors from the survivor, stamped degraded.
func TestReachSharesComeFromOneLiveSet(t *testing.T) {
	cfg := smallConfig(42)
	s0, b0 := shardHandler(t, cfg, 0, 2)
	shard0 := httptest.NewServer(s0)
	t.Cleanup(shard0.Close)
	answers := [][]byte{
		binaryShares(0.25, 0.5),
		[]byte(`{"demo":0.25,"union":0.5}`),
		binaryShares(0.25),
		binaryShares(0.25, 0.5, 0.75),
	}
	var calls atomic.Int32
	shard1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == shardPathReach {
			if k := int(calls.Add(1)) - 1; k < len(answers) {
				w.Write(answers[k])
				return
			}
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

	// Rotation: even estimates are shard 0's, odd ones shard 1's; shard 1's
	// death surfaces at estimate 9, which fails over to shard 0.
	const died = 2*4 + 1
	for k := 0; k < died+5; k++ {
		demo, union, err := proxy.ReachShares(context.Background(), f, clauses)
		wantD, wantU := liveD, liveU
		switch {
		case k == 1:
			wantD, wantU = 0.25, 0.5
		case k%2 == 1 && k < died:
			if err == nil {
				t.Fatalf("estimate %d: shard 1's %d-byte body %q read as (%v, %v)",
					k, len(answers[k/2]), answers[k/2], demo, union)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if demo != wantD || union != wantU {
			t.Fatalf("estimate %d = (%v, %v), want (%v, %v) unchanged from one shard", k, demo, union, wantD, wantU)
		}
		if degraded := proxy.Degraded(); degraded != (k >= died) {
			t.Fatalf("estimate %d: degraded %v, want %v", k, degraded, k >= died)
		}
	}
}

// binaryShares is a share RPC's 200 body carrying shares.
func binaryShares(shares ...float64) []byte {
	rec := httptest.NewRecorder()
	writeAnswer(rec, http.StatusOK, appendShares(nil, shares...))
	return rec.Body.Bytes()
}
