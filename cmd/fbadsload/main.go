// Command fbadsload replays the permuted-probe abuse workload against the
// serving tier: thousands of simulated advertiser accounts, each re-probing
// a fixed random interest set in fresh permutations through
// /v9.0/act_<n>/reachestimate (the distributed variant of the §4 collection
// pattern). It reports p50/p95/p99 latency, sustained throughput, and the
// admission/rate-limit split.
//
// With no -url it builds the world itself and serves it in-process exactly
// as fbadsd would — including -shards scatter-gather backends and
// -admit-rate admission control — so shard counts are comparable on one
// machine:
//
//	fbadsload -catalog 20000 -accounts 500 -sweep 1,4 -json BENCH_serving.json
//
// With -url it drives an already-running fbadsd instead:
//
//	fbadsd -addr :8080 -shards 4 &
//	fbadsload -url http://localhost:8080 -catalog 98982
//
// -sweep runs the same workload once per shard count and, with -json,
// writes the BENCH_serving.json baseline (throughput ratio of the last
// sweep entry vs the first, per-run latency percentiles).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nanotarget/internal/adsapi"
	"nanotarget/internal/cliflags"
	"nanotarget/internal/loadgen"
	"nanotarget/internal/serving"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fbadsload: ")
	cfg := cliflags.RegisterWorldFlags(flag.CommandLine,
		cliflags.Without(cliflags.FlagPanel, cliflags.FlagWorkers),
		cliflags.With(cliflags.FlagPopulation),
		cliflags.Usage(cliflags.FlagCatalog, "interest catalog size (must match the target server's -catalog)"),
		cliflags.Usage(cliflags.FlagSeed, "world and workload seed"))
	var (
		targetURL   = flag.String("url", "", "target server base URL (empty = build the world and serve it in-process)")
		shards      = flag.Int("shards", 1, "backend shards for the in-process server (ignored with -url)")
		sweepFlag   = flag.String("sweep", "", "comma-separated shard counts to benchmark in sequence, e.g. 1,4 (in-process only)")
		accounts    = flag.Int("accounts", 1000, "simulated advertiser accounts")
		probes      = flag.Int("probes", 20, "permuted re-probes per account")
		interests   = flag.Int("interests", 18, "interest-set size per account (era cap is 25)")
		concurrency = flag.Int("concurrency", 0, "in-flight requests (0 = one per core)")
		era         = flag.String("era", "2017", "platform era for the in-process server: 2017, 2020 or workaround")
		admitRate   = flag.Float64("admit-rate", 0, "in-process server's per-account admission limit in tokens/second (0 = no admission control)")
		admitBurst  = flag.Float64("admit-burst", 0, "admission token-bucket capacity (0 = 2x admit-rate)")
		maxInflight = flag.Int("max-inflight", 0, "in-process server's bound on concurrently served requests; excess shed with 503 + Retry-After (0 = unbounded)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request context deadline each probe carries (0 = none); expired probes tally as deadline_exceeded")
		token       = flag.String("token", "", "access token sent with every request (and required by the in-process server when set)")
		prewarm     = flag.Bool("prewarm-rows", false, "materialize the inclusion-row table before the run starts")
		jsonOut     = flag.String("json", "", "write the run (or sweep) as a BENCH_serving.json baseline to this path")
		note        = flag.String("note", "", "free-form label recorded in the JSON baseline and printed with each run (e.g. \"proxy 2-process topology\")")
	)
	flag.Parse()

	eraCfg, err := parseEra(*era)
	if err != nil {
		log.Fatal(err)
	}
	if *note != "" {
		log.Printf("note: %s", *note)
	}
	sweep := []int{*shards}
	if *sweepFlag != "" {
		if *targetURL != "" {
			log.Fatal("-sweep rebuilds the in-process backend per shard count; it cannot drive an external -url")
		}
		if sweep, err = parseSweep(*sweepFlag); err != nil {
			log.Fatal(err)
		}
	}

	workload := loadgen.Config{
		Accounts:         *accounts,
		ProbesPerAccount: *probes,
		Interests:        *interests,
		CatalogSize:      cfg.Population.CatalogSize,
		Concurrency:      *concurrency,
		Seed:             cfg.Population.Seed,
		AccessToken:      *token,
		RequestTimeout:   *reqTimeout,
	}

	type runResult struct {
		Shards int `json:"shards"`
		loadgen.Result
		// Health is the proxy's replica-level view after the run (hedge and
		// failover tallies included); absent when the target backend is not
		// a shard proxy.
		Health *serving.HealthStats `json:"serving_health,omitempty"`
	}
	var results []runResult
	for _, n := range sweep {
		w := workload
		if *targetURL != "" {
			w.BaseURL = *targetURL
			res, err := loadgen.Run(context.Background(), w)
			if err != nil {
				log.Fatal(err)
			}
			health := fetchHealth(*targetURL, *token)
			results = append(results, runResult{Shards: n, Result: res, Health: health})
			printRun(n, res, *targetURL)
			printHealth(health)
			continue
		}

		start := time.Now()
		var backend serving.ReachBackend
		if n > 1 {
			backend, err = serving.NewShardedBackend(context.Background(), *cfg, n)
		} else {
			backend, err = serving.NewLocalBackendFromConfig(*cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		var tokens []string
		if *token != "" {
			tokens = []string{*token}
		}
		srv, err := adsapi.NewServer(adsapi.ServerConfig{
			Backend:     backend,
			Era:         eraCfg,
			Tokens:      tokens,
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
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: handler}
		go hs.Serve(ln)
		log.Printf("shards=%d: world ready in %v, serving on %s",
			n, time.Since(start).Round(time.Millisecond), ln.Addr())

		w.BaseURL = "http://" + ln.Addr().String()
		res, err := loadgen.Run(context.Background(), w)
		health := fetchHealth(w.BaseURL, *token)
		hs.Close()
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, runResult{Shards: n, Result: res, Health: health})
		printRun(n, res, w.BaseURL)
		printHealth(health)
	}

	ratio := 0.0
	if len(results) > 1 && results[0].Throughput > 0 {
		ratio = results[len(results)-1].Throughput / results[0].Throughput
		fmt.Printf("\nthroughput ratio shards=%d vs shards=%d: %.2fx\n",
			results[len(results)-1].Shards, results[0].Shards, ratio)
	}

	if *jsonOut == "" {
		return
	}
	baseline := map[string]any{
		"description": "Baseline for the serving-tier load benchmark (cmd/fbadsload driving the in-process fbadsd stack: scatter-gather ShardedBackend behind adsapi). Regenerate with `make bench-serving`; CI's bench-smoke job replays a scaled-down sweep on every commit and gates on the latency/throughput fields being present. Numbers are host-dependent — compare the throughput ratio across shard counts, not absolute rates, across hosts.",
		"recorded": map[string]string{
			"date":    time.Now().Format("2006-01-02"),
			"goos":    runtime.GOOS,
			"goarch":  runtime.GOARCH,
			"cpu":     cpuModel(),
			"command": "fbadsload " + strings.Join(os.Args[1:], " "),
		},
		"workload": fmt.Sprintf(
			"%d advertiser accounts x %d permuted re-probes of a fixed %d-interest set each (the distributed Faizullabhoy-Korolova reach-estimate abuse pattern), %d-interest catalog, population %d, era %s",
			*accounts, *probes, *interests, cfg.Population.CatalogSize, cfg.Population.Population, eraCfg.Name),
		"results":          results,
		"throughput_ratio": ratio,
	}
	if *note != "" {
		baseline["note"] = *note
	}
	f, err := os.Create(*jsonOut)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(baseline); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *jsonOut)
}

func printRun(shards int, res loadgen.Result, target string) {
	fmt.Printf("shards=%d against %s\n", shards, target)
	degraded := ""
	if res.Degraded > 0 {
		degraded = fmt.Sprintf(" (%d degraded)", res.Degraded)
	}
	fmt.Printf("  %d requests in %v: %d ok%s, %d admission-rejected (429), %d shed (503), %d rate-limited (code 17), %d deadline-exceeded, %d errors\n",
		res.Requests, res.Duration.Round(time.Millisecond), res.OK, degraded, res.Rejected, res.Shed, res.RateLimited, res.DeadlineExceeded, res.Errors)
	fmt.Printf("  throughput %.1f req/s, latency p50 %.2fms p95 %.2fms p99 %.2fms\n",
		res.Throughput, res.P50Ms, res.P95Ms, res.P99Ms)
}

// fetchHealth grabs the proxy's replica health and hedge/failover tallies
// after a run. Best-effort: non-proxy backends (404) and scrape errors both
// come back nil — the load numbers stand on their own either way.
func fetchHealth(baseURL, token string) *serving.HealthStats {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := loadgen.FetchServingHealth(ctx, nil, baseURL, token)
	if err != nil {
		log.Printf("serving health scrape failed: %v", err)
		return nil
	}
	return st
}

func printHealth(st *serving.HealthStats) {
	if st == nil {
		return
	}
	fmt.Printf("  proxy health: %d replicas up, %d down; hedged %d (wins %d), failovers %d, retry budget exhausted %d\n",
		st.Up, st.Down, st.Hedged, st.HedgeWins, st.Failovers, st.RetryBudgetExhausted)
}

func parseEra(name string) (adsapi.Era, error) {
	switch name {
	case "2017":
		return adsapi.Era2017, nil
	case "2020":
		return adsapi.Era2020, nil
	case "workaround":
		return adsapi.EraWorkaround, nil
	}
	return adsapi.Era{}, fmt.Errorf("unknown era %q", name)
}

func parseSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sweep entry %q (want positive shard counts like 1,4)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// cpuModel best-effort reads the host CPU model for the baseline's recorded
// block; the benchmark contract compares ratios, not absolute times.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			}
		}
	}
	return fmt.Sprintf("%d logical cores (%s/%s)", runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}
