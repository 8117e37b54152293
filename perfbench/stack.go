package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"nanotarget/internal/adsapi"
	"nanotarget/internal/audience"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

// Deployment under test: the multi-process fbadsd topology
//
//	fbadsd -shard-of 0/2 ... ; fbadsd -shard-of 1/2 ...
//	fbadsd -proxy u0,u1 -admit-rate ... -max-inflight ...
//
// assembled from the same library calls cmd/fbadsd makes, with every server
// on its own loopback listener so each request crosses real HTTP twice:
// client -> API, and API proxy -> each shard. The shards serve the cache mode
// the workload names: fbadsd's default exact mode, or -cache-mode canonical.
const (
	numShards      = 2
	catalogSize    = 20_000
	populationSize = 100_000_000
	worldSeed      = 1 // the repository's default world; traffic varies with --seed

	// Admission and the in-flight gate are on, as an operator would run a
	// public endpoint, but sized so the benchmark's traffic is never
	// refused: the layers' bookkeeping cost is measured, not their verdicts.
	admitRate   = 1e7
	maxInFlight = 256
)

// worldConfig is the world every process of the topology is started with.
func worldConfig(mode audience.Mode) worldcfg.Config {
	cfg := worldcfg.Default()
	cfg.Population.Seed = worldSeed
	cfg.Population.CatalogSize = catalogSize
	cfg.Population.Population = populationSize
	cfg.Cache.Mode = mode
	return cfg
}

// stack is one running deployment.
type stack struct {
	shards []*serving.ShardServer
	apiURL string

	stopHealth context.CancelFunc
	servers    []*http.Server
	serving    sync.WaitGroup
}

// startStack builds and starts the deployment. With tr non-nil every layer
// boundary is wrapped in the tracer's probes; with tr nil the stack is
// exactly what fbadsd serves.
func startStack(tr *tracer, mode audience.Mode) (*stack, error) {
	cfg := worldConfig(mode)
	st := &stack{}
	urls := make([]string, numShards)
	for i := range urls {
		backend, info, err := serving.NewShardBackend(cfg, i, numShards)
		if err != nil {
			st.close()
			return nil, err
		}
		srv, err := serving.NewShardServer(backend, info)
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, srv)
		var h http.Handler = srv
		if tr != nil {
			h = tr.shardHandler(srv)
		}
		addr, err := st.serve(h, tr.shardListener)
		if err != nil {
			st.close()
			return nil, err
		}
		urls[i] = "http://" + addr
	}

	proxy, err := serving.NewProxyBackend(cfg, serving.ProxyConfig{URLs: urls})
	if err != nil {
		st.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.stopHealth = cancel
	proxy.ProbeNow(ctx)
	if down := proxy.HealthStats().Down; down > 0 {
		st.close()
		return nil, fmt.Errorf("%d shard(s) down after start", down)
	}
	proxy.StartHealth(ctx)

	var backend serving.ReachBackend = proxy
	if tr != nil {
		backend = &tracedBackend{proxy}
	}
	api, err := adsapi.NewServer(adsapi.ServerConfig{Backend: backend, Era: adsapi.Era2017})
	if err != nil {
		st.close()
		return nil, err
	}
	var inner http.Handler = api
	if tr != nil {
		inner = tr.apiHandler(api)
	}
	handler := http.Handler(serving.NewAdmission(serving.AdmissionConfig{Rate: admitRate, Cost: adsapi.AdmissionCost}, inner))
	handler = serving.NewGate(serving.GateConfig{MaxInFlight: maxInFlight}, handler)
	if tr != nil {
		handler = tr.edgeHandler(handler)
	}
	addr, err := st.serve(handler, nil)
	if err != nil {
		st.close()
		return nil, err
	}
	st.apiURL = "http://" + addr
	return st, nil
}

// serve starts an HTTP server for h on a fresh loopback port.
// wrap, when non-nil, wraps the listener.
func (st *stack) serve(h http.Handler, wrap func(net.Listener) net.Listener) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	hs := &http.Server{Handler: h}
	st.servers = append(st.servers, hs)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: server on %s: %v\n", ln.Addr(), err)
		}
	}()
	return ln.Addr().String(), nil
}

// close stops the health prober and every server, and waits for them.
func (st *stack) close() {
	if st.stopHealth != nil {
		st.stopHealth()
	}
	for _, hs := range st.servers {
		hs.Close()
	}
	st.serving.Wait()
}

// cacheCounts sums the shards' audience-cache hits and misses over every
// cache level.
func (st *stack) cacheCounts() (hits, misses int64) {
	for _, s := range st.shards {
		total := s.Backend().Engine().Stats().Total()
		hits += int64(total.Hits)
		misses += int64(total.Misses)
	}
	return hits, misses
}

// rows is the number of inclusion rows materialized across the shards.
func (st *stack) rows() int64 {
	var n int64
	for _, s := range st.shards {
		rows, _ := s.Backend().Model().RowStats()
		n += int64(rows)
	}
	return n
}

// timedStart starts the deployment setups times and returns the last one
// with the median start-up time; earlier ones are shut down. Repeating the
// start-up steadies setup_s against a noisy host.
func timedStart(tr *tracer, mode audience.Mode, setups int) (*stack, float64, error) {
	times := make([]float64, 0, setups)
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(tr, mode); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, median(times), nil
}
