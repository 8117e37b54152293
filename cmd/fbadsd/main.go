// Command fbadsd serves the simulated Facebook Marketing API over HTTP: the
// substrate the paper queried for every audience size (§2.1). Point the
// adsapi client (or curl) at it:
//
//	fbadsd -addr :8080 -era 2017 -token secret &
//	curl 'http://localhost:8080/v9.0/act_1/reachestimate?access_token=secret&targeting_spec={"geo_locations":{"countries":["ES"]}}'
//
// Eras select platform rules: 2017 (reach floor 20, no worldwide), 2020
// (floor 1000, worldwide allowed) or workaround (floor 100, per [18]).
//
// -shards N splits the population by user-ID range across N in-process
// backend shards (each with its own audience engine and row-kernel state)
// and serves reach by scatter-gather — byte-identical to the single-world
// server at N=1, within 1e-12 relative at N>1 (internal/serving).
// -admit-rate puts per-ad-account admission control (HTTP 429 with
// Retry-After) in front of the API, throttling the multi-account probe
// floods cmd/fbadsload replays; tokens are charged proportional to the
// spec's predicted row-kernel work (serving.SpecCost).
// -max-inflight bounds concurrent requests server-wide, shedding the excess
// with 503 + Retry-After (serving.Gate) — overload protection distinct from
// the per-account 429s.
//
// Process sharding promotes that topology across processes:
//
//	fbadsd -shard-of 0/2 -shard-listen :9100 &   # shard 0's RPC server
//	fbadsd -shard-of 1/2 -shard-listen :9101 &   # shard 1's RPC server
//	fbadsd -proxy http://localhost:9100,http://localhost:9101 -degrade renormalize
//
// A -shard-of process builds only its slice of the world and serves the
// shard RPC (/shard/v1/*) on -shard-listen — no Marketing API surface. A
// -proxy process serves the full Marketing API by scatter-gathering those
// shard servers; answers are byte-identical to the in-process -shards
// topology while all shards are healthy. -degrade picks the failover
// behaviour when probes (every -health-interval) find shards down: "fail"
// answers 503 naming the dead shards, "renormalize" keeps serving from the
// live shards with responses stamped "degraded": true. Every fbadsd in one
// topology must run the same world flags (-seed/-catalog/-population/...).
//
// Shards may be replicated: "|" separates replicas of one shard inside the
// comma-separated shard list,
//
//	fbadsd -shard-of 0/2 -shard-listen :9100 &   # shard 0, replica a
//	fbadsd -shard-of 0/2 -shard-listen :9102 &   # shard 0, replica b
//	fbadsd -shard-of 1/2 -shard-listen :9101 &   # shard 1
//	fbadsd -proxy 'http://localhost:9100|http://localhost:9102,http://localhost:9101'
//
// Replicas of a shard are byte-identical worlds by construction (same world
// flags, same shard index), so replica failover is EXACT: killing one
// replica never changes or degrades an answer — -degrade only engages when
// every replica of a shard is down. -hedge-after dur arms hedged requests:
// if a shard RPC has not answered after dur, the proxy fires the same
// request at the next live replica and the first success wins (the loser's
// context is canceled; tallies at GET /v9.0/serving/health).
//
// The proxy also runs a circuit breaker per replica (trip after
// -breaker-failures consecutive data-RPC failures, fast-fail for
// -breaker-open-timeout, then a half-open trial), propagates every caller's
// deadline into the shard RPCs (X-Deadline-Ms), and -chaos-slow-shard i=dur
// injects dur of latency into every replica of shard i's RPCs
// (loadgen.FlakyTransport) for chaos drills — see scripts/proxy_smoke.sh.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"nanotarget/internal/adsapi"
	"nanotarget/internal/cliflags"
	"nanotarget/internal/loadgen"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("fbadsd: ")
	cfg := cliflags.RegisterWorldFlags(flag.CommandLine,
		cliflags.Without(cliflags.FlagPanel, cliflags.FlagWorkers),
		cliflags.With(cliflags.FlagPopulation))
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		era         = flag.String("era", "2017", "platform era: 2017, 2020 or workaround")
		tokens      = flag.String("tokens", "", "comma-separated access tokens (empty = no auth)")
		rate        = flag.Float64("rate", 0, "per-token rate limit in requests/second (0 = unlimited)")
		prewarm     = flag.Bool("prewarm-rows", false, "materialize the full inclusion-row table at startup (catalog x grid x 8 bytes of memory per shard; zero first-touch latency on cold estimates)")
		shards      = flag.Int("shards", 1, "backend shards: split the population by user-ID range and serve reach by scatter-gather (1 = single-world backend)")
		admitRate   = flag.Float64("admit-rate", 0, "per-ad-account admission limit in tokens/second, enforced with 429 + Retry-After in front of the API (0 = no admission control)")
		admitBurst  = flag.Float64("admit-burst", 0, "admission token-bucket capacity (0 = 2x admit-rate)")
		maxInflight = flag.Int("max-inflight", 0, "bound on concurrently served requests; the excess is shed with 503 + Retry-After (0 = unbounded)")

		shardOf        = flag.String("shard-of", "", "serve one shard's RPC instead of the Marketing API: \"i/n\" builds shard i of an n-shard topology (listen address: -shard-listen)")
		shardListen    = flag.String("shard-listen", ":9100", "listen address of the shard RPC server (only with -shard-of)")
		proxyURLs      = flag.String("proxy", "", "comma-separated shard base URLs, in shard order, each optionally a |-separated replica set (\"u0a|u0b,u1\"): serve the Marketing API by scatter-gathering these shard processes (mutually exclusive with -shards > 1 and -shard-of)")
		degrade        = flag.String("degrade", "fail", "proxy degradation policy when shards are down: fail (503 naming the dead shards) or renormalize (serve from live shards, responses stamped degraded)")
		healthInterval = flag.Duration("health-interval", time.Second, "proxy health-probe period")
		rpcTimeout     = flag.Duration("rpc-timeout", 10*time.Second, "per-shard-RPC timeout of the proxy")
		breakFailures  = flag.Int("breaker-failures", 5, "consecutive shard-RPC failures that trip the proxy's per-shard circuit breaker open")
		breakTimeout   = flag.Duration("breaker-open-timeout", 5*time.Second, "how long an open circuit breaker fast-fails before a half-open trial RPC")
		hedgeAfter     = flag.Duration("hedge-after", 0, "hedge a shard RPC to the next live replica when the first has not answered after this long (0 = no hedging; needs replicated shards)")
		chaosSlowShard = flag.String("chaos-slow-shard", "", "inject latency into one shard's RPCs, as i=duration (e.g. 1=300ms); chaos testing only")
	)
	flag.Parse()

	if *shardOf != "" && *proxyURLs != "" {
		log.Fatal("-shard-of and -proxy are mutually exclusive: a process is a shard or a proxy, not both")
	}
	if *proxyURLs != "" && *shards > 1 {
		log.Fatal("-proxy and -shards > 1 are mutually exclusive: the proxy's shard count is len(-proxy)")
	}
	if *shardOf != "" {
		runShard(*cfg, *shardOf, *shardListen)
		return
	}

	var eraCfg adsapi.Era
	switch *era {
	case "2017":
		eraCfg = adsapi.Era2017
	case "2020":
		eraCfg = adsapi.Era2020
	case "workaround":
		eraCfg = adsapi.EraWorkaround
	default:
		log.Fatalf("unknown era %q", *era)
	}

	start := time.Now()
	var (
		backend serving.ReachBackend
		err     error
	)
	topology := fmt.Sprintf("%d in-process shard(s)", *shards)
	switch {
	case *proxyURLs != "":
		policy, perr := serving.ParsePolicy(*degrade)
		if perr != nil {
			log.Fatal(perr)
		}
		topo, terr := serving.ParseShardTopology(*proxyURLs)
		if terr != nil {
			log.Fatal(terr)
		}
		client, cerr := chaosClient(*chaosSlowShard, topo)
		if cerr != nil {
			log.Fatal(cerr)
		}
		var proxy *serving.ProxyBackend
		proxy, err = serving.NewProxyBackend(*cfg, serving.ProxyConfig{
			Shards:        topo,
			Timeout:       *rpcTimeout,
			Policy:        policy,
			ProbeInterval: *healthInterval,
			HedgeAfter:    *hedgeAfter,
			Breaker: serving.BreakerConfig{
				FailureThreshold: *breakFailures,
				OpenTimeout:      *breakTimeout,
			},
			Client: client,
		})
		if err == nil {
			proxy.ProbeNow(context.Background())
			st := proxy.HealthStats()
			if st.Down > 0 {
				for _, sh := range st.Shards {
					if !sh.Up {
						log.Printf("shard %d replica %d (%s) down at startup: %s", sh.Shard, sh.Replica, sh.URL, sh.LastError)
					}
				}
			}
			proxy.StartHealth(context.Background())
			backend = proxy
			replicas := 0
			for _, rs := range topo {
				replicas += len(rs)
			}
			topology = fmt.Sprintf("proxy over %d shard process(es) (%d replica(s)), policy %s", len(topo), replicas, policy)
			if *hedgeAfter > 0 {
				topology += fmt.Sprintf(", hedge after %v", *hedgeAfter)
			}
		}
	case *shards > 1:
		backend, err = serving.NewShardedBackend(context.Background(), *cfg, *shards)
	default:
		backend, err = serving.NewLocalBackendFromConfig(*cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	var tokenList []string
	if *tokens != "" {
		tokenList = strings.Split(*tokens, ",")
	}
	srv, err := adsapi.NewServer(adsapi.ServerConfig{
		Backend:     backend,
		Era:         eraCfg,
		Tokens:      tokenList,
		RateLimit:   *rate,
		PrewarmRows: *prewarm,
	})
	if err != nil {
		log.Fatal(err)
	}
	handler := http.Handler(srv)
	if *admitRate > 0 {
		ac := serving.AdmissionConfig{Rate: *admitRate, Burst: *admitBurst, Cost: adsapi.AdmissionCost}
		handler = serving.NewAdmission(ac, handler)
	}
	if *maxInflight > 0 {
		handler = serving.NewGate(serving.GateConfig{MaxInFlight: *maxInflight}, handler)
	}
	log.Printf("world ready in %v: %d interests, %d users, %s, era %s, floor %d",
		time.Since(start).Round(time.Millisecond), backend.Catalog().Len(), backend.Population(),
		topology, eraCfg.Name, eraCfg.MinReach)
	log.Printf("listening on %s", *addr)
	host := *addr
	if strings.HasPrefix(host, ":") {
		host = "localhost" + host
	}
	fmt.Printf("try: curl 'http://%s/v9.0/act_1/reachestimate?targeting_spec=%s'\n",
		host, `{"geo_locations":{"countries":["ES"]}}`)
	log.Fatal(http.ListenAndServe(*addr, handler))
}

// chaosClient builds the proxy's HTTP client when -chaos-slow-shard is set:
// a loadgen.FlakyTransport latency injector over serving.NewShardTransport,
// under which every RPC aimed at the named shard — any of its replicas —
// sleeps the configured duration (or until the propagated deadline expires
// — the injected sleep honors the request context). An empty spec returns
// nil, leaving the proxy its default pooled client.
func chaosClient(spec string, topo [][]string) (*http.Client, error) {
	if spec == "" {
		return nil, nil
	}
	var index int
	var dur time.Duration
	eq := strings.IndexByte(spec, '=')
	if eq < 0 {
		return nil, fmt.Errorf("-chaos-slow-shard %q: want i=duration (e.g. 1=300ms)", spec)
	}
	if _, err := fmt.Sscanf(spec[:eq], "%d", &index); err != nil {
		return nil, fmt.Errorf("-chaos-slow-shard %q: bad shard index: %v", spec, err)
	}
	var err error
	if dur, err = time.ParseDuration(spec[eq+1:]); err != nil {
		return nil, fmt.Errorf("-chaos-slow-shard %q: bad duration: %v", spec, err)
	}
	if index < 0 || index >= len(topo) {
		return nil, fmt.Errorf("-chaos-slow-shard %q: shard index outside [0, %d)", spec, len(topo))
	}
	targets := make([]string, len(topo[index]))
	for i, u := range topo[index] {
		targets[i] = strings.TrimSuffix(u, "/")
	}
	log.Printf("CHAOS: delaying shard %d (%s) RPCs by %v", index, strings.Join(targets, "|"), dur)
	return &http.Client{Transport: &loadgen.FlakyTransport{
		Base:  serving.NewShardTransport(),
		Delay: dur,
		DelayPred: func(r *http.Request) bool {
			for _, target := range targets {
				if strings.HasPrefix(r.URL.String(), target+"/") {
					return true
				}
			}
			return false
		},
	}}, nil
}

// runShard builds shard i of n and serves its RPC on listen.
func runShard(cfg worldcfg.Config, spec, listen string) {
	var index, count int
	if _, err := fmt.Sscanf(spec, "%d/%d", &index, &count); err != nil {
		log.Fatalf("-shard-of %q: want i/n (e.g. 0/2)", spec)
	}
	start := time.Now()
	backend, info, err := serving.NewShardBackend(cfg, index, count)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serving.NewShardServer(backend, info)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shard %d/%d ready in %v: users [%d, %d) of %d, %d interests",
		index, count, time.Since(start).Round(time.Millisecond),
		info.Range.Lo, info.Range.Hi, info.TotalPopulation, backend.Catalog().Len())
	log.Printf("shard RPC listening on %s", listen)
	log.Fatal(http.ListenAndServe(listen, srv))
}
