// Command fbadsd serves the simulated Facebook Marketing API over HTTP: the
// substrate the paper queried for every audience size (§2.1). Point the
// adsapi client (or curl) at it:
//
//	fbadsd -addr :8080 -era 2017 -tokens secret &
//	curl 'http://localhost:8080/v9.0/act_1/reachestimate?access_token=secret&targeting_spec={"geo_locations":{"countries":["ES"]}}'
//
// Eras select platform rules: 2017 (reach floor 20, no worldwide), 2020
// (floor 1000, worldwide allowed) or workaround (floor 100, per [18]).
//
// -admit-rate puts per-ad-account admission control (HTTP 429 with
// Retry-After) in front of the API, throttling the multi-account probe
// floods cmd/fbadsload replays; tokens are charged proportional to the
// spec's predicted row-kernel work (serving.SpecCost).
// -max-inflight bounds concurrent requests server-wide, shedding the excess
// with 503 + Retry-After (serving.Gate) — overload protection distinct from
// the per-account 429s.
//
// Replication spreads the API's estimates over processes:
//
//	fbadsd -shard-listen :9100 &   # replica a's RPC server
//	fbadsd -shard-listen :9101 &   # replica b
//	fbadsd -shard-listen :9102 &   # replica c
//	fbadsd -proxy http://localhost:9100,http://localhost:9101,http://localhost:9102
//
// A -shard-listen process builds the whole world and serves its reach
// primitives over the shard RPC (/shard/v1/*) — no Marketing API surface. A
// -proxy process serves the full Marketing API by sending each estimate to
// one replica in rotation. Every replica serves the byte-identical world,
// so failover is EXACT: an estimate whose replica cannot answer (found by a
// failed RPC or by the probes every -health-interval) is asked of the next
// live replica, and every answer the proxy serves is byte-identical to the
// single-world server. Only when no replica answers does the API return
// 503, naming the replicas. Every fbadsd in one topology must run the same
// world flags (-seed/-catalog/-population/...); the probes refuse a replica
// serving another world. -hedge-after dur arms hedged requests: if an RPC
// has not answered after dur, the proxy fires the same request at the next
// live replica and the first success wins (the loser's context is
// canceled; tallies at GET /v9.0/serving/health).
//
// A replica comes back only through a probe that passes both its identity
// check and one reach RPC, so a replica whose health endpoint answers while
// its reach RPCs fail stays out of rotation. The proxy propagates every
// caller's deadline into the replica RPCs: in the X-Deadline-Ms header over
// HTTP, and as a field of each reach frame on upgraded connections. The
// slow-replica drill for that path is a Go test (internal/adsapi); the
// multi-process failover drill is scripts/proxy_smoke.sh.
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
		prewarm     = flag.Bool("prewarm-rows", false, "materialize the full inclusion-row table at startup (catalog x grid x 8 bytes of memory per world; zero first-touch latency on cold estimates)")
		admitRate   = flag.Float64("admit-rate", 0, "per-ad-account admission limit in tokens/second, enforced with 429 + Retry-After in front of the API (0 = no admission control)")
		admitBurst  = flag.Float64("admit-burst", 0, "admission token-bucket capacity (0 = 2x admit-rate)")
		maxInflight = flag.Int("max-inflight", 0, "bound on concurrently served requests; the excess is shed with 503 + Retry-After (0 = unbounded)")

		shardListen    = flag.String("shard-listen", "", "serve a whole-world replica's RPC on this address instead of the Marketing API (empty = serve the API)")
		proxyURLs      = flag.String("proxy", "", "comma-separated replica base URLs: serve the Marketing API by sending each estimate to one of these replica processes in rotation, failing over to the next (mutually exclusive with -shard-listen)")
		healthInterval = flag.Duration("health-interval", time.Second, "proxy health-probe period")
		rpcTimeout     = flag.Duration("rpc-timeout", 10*time.Second, "per-replica-RPC timeout of the proxy")
		hedgeAfter     = flag.Duration("hedge-after", 0, "hedge a replica RPC to the next live replica when the first has not answered after this long (0 = no hedging; needs -proxy with 2 or more replicas)")
	)
	flag.Parse()

	if *shardListen != "" && *proxyURLs != "" {
		log.Fatal("-shard-listen and -proxy are mutually exclusive: a process is a replica or a proxy, not both")
	}
	if *shardListen != "" {
		runReplica(*cfg, *shardListen)
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
	topology := "single world"
	if *proxyURLs != "" {
		urls := strings.Split(*proxyURLs, ",")
		var proxy *serving.ProxyBackend
		proxy, err = serving.NewProxyBackend(*cfg, serving.ProxyConfig{
			URLs:          urls,
			Timeout:       *rpcTimeout,
			ProbeInterval: *healthInterval,
			HedgeAfter:    *hedgeAfter,
		})
		if err == nil {
			proxy.ProbeNow(context.Background())
			st := proxy.HealthStats()
			for _, row := range st.Shards {
				if !row.Up {
					log.Printf("replica %d (%s) down at startup: %s", row.Replica, row.URL, row.LastError)
				}
			}
			proxy.StartHealth(context.Background())
			backend = proxy
			topology = fmt.Sprintf("proxy over %d replica(s)", len(urls))
			if *hedgeAfter > 0 {
				topology += fmt.Sprintf(", hedge after %v", *hedgeAfter)
			}
		}
	} else {
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
	log.Fatal(newHTTPServer(*addr, handler).ListenAndServe())
}

// Listener timeouts shared by both fbadsd modes. readHeaderTimeout closes a
// connection whose request headers stall, so a slow-header client holds a
// socket and a goroutine that long at most. idleTimeout retires kept-alive
// connections; it exceeds the proxy's 90 s idle-pool timeout, so the
// client side closes an idle connection before the server does.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the HTTP server for either mode: the Marketing API or
// a replica's RPC.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// runReplica builds the whole world and serves its replica RPC on listen.
func runReplica(cfg worldcfg.Config, listen string) {
	start := time.Now()
	backend, info, err := serving.NewReplicaBackend(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serving.NewShardServer(backend, info)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("replica ready in %v: %d users, %d interests",
		time.Since(start).Round(time.Millisecond), info.TotalPopulation, backend.Catalog().Len())
	log.Printf("replica RPC listening on %s", listen)
	log.Fatal(newHTTPServer(listen, srv).ListenAndServe())
}
