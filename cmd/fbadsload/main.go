// Command fbadsload replays the permuted-probe abuse workload against a
// running fbadsd: thousands of simulated advertiser accounts, each
// re-probing a fixed random interest set in fresh permutations through
// /v9.0/act_<n>/reachestimate (the distributed variant of the §4 collection
// pattern). It is a client only: -url names the server to flood, and
// -catalog must match that server's catalog. It reports p50/p95/p99
// latency, sustained throughput, the admission/shed/rate-limit/deadline
// split and, against a replica proxy, the proxy's replica health.
//
//	fbadsd -addr :8080 &
//	fbadsload -url http://localhost:8080 -accounts 400 -probes 10 -json run.json
//
// scripts/proxy_smoke.sh drives it against a multi-process proxy topology;
// perfbench measures the same traffic with an answer oracle.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"nanotarget/internal/loadgen"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fbadsload: ")
	world := worldcfg.Default().Population
	var (
		targetURL   = flag.String("url", "", "target fbadsd base URL, e.g. http://localhost:8080 (required)")
		catalog     = flag.Int("catalog", world.CatalogSize, "interest catalog size (must match the target server's -catalog)")
		seed        = flag.Uint64("seed", world.Seed, "workload seed (account interest sets and probe permutations)")
		accounts    = flag.Int("accounts", 1000, "simulated advertiser accounts")
		probes      = flag.Int("probes", 20, "permuted re-probes per account")
		interests   = flag.Int("interests", 18, "interest-set size per account (era cap is 25)")
		concurrency = flag.Int("concurrency", 0, "in-flight requests (0 = one per core)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request context deadline each probe carries (0 = none); expired probes tally as deadline_exceeded")
		token       = flag.String("token", "", "access token sent with every request")
		jsonOut     = flag.String("json", "", "write the run as a JSON baseline to this path")
		note        = flag.String("note", "", "free-form label recorded in the JSON baseline and printed with the run (e.g. \"proxy 2-process topology\")")
	)
	flag.Parse()
	if *targetURL == "" {
		fmt.Fprintln(os.Stderr, "fbadsload: -url is required")
		flag.Usage()
		os.Exit(2)
	}
	if *note != "" {
		log.Printf("note: %s", *note)
	}

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:          *targetURL,
		Accounts:         *accounts,
		ProbesPerAccount: *probes,
		Interests:        *interests,
		CatalogSize:      *catalog,
		Concurrency:      *concurrency,
		Seed:             *seed,
		AccessToken:      *token,
		RequestTimeout:   *reqTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	health := fetchHealth(*targetURL, *token)
	printRun(res, *targetURL)
	printHealth(health)

	if *jsonOut == "" {
		return
	}
	baseline := map[string]any{
		"description": "One cmd/fbadsload run against a running fbadsd. Numbers are host-dependent; perfbench is the repository's measured benchmark.",
		"recorded": map[string]string{
			"date":    time.Now().Format("2006-01-02"),
			"goos":    runtime.GOOS,
			"goarch":  runtime.GOARCH,
			"cpu":     cpuModel(),
			"command": "fbadsload " + strings.Join(os.Args[1:], " "),
		},
		"workload": fmt.Sprintf(
			"%d advertiser accounts x %d permuted re-probes of a fixed %d-interest set each (the distributed Faizullabhoy-Korolova reach-estimate abuse pattern), %d-interest catalog",
			*accounts, *probes, *interests, *catalog),
		"result": struct {
			loadgen.Result
			// Health is the proxy's replica-level view after the run
			// (hedge and failover tallies included); absent when the
			// target backend is not a replica proxy.
			Health *serving.HealthStats `json:"serving_health,omitempty"`
		}{res, health},
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

func printRun(res loadgen.Result, target string) {
	fmt.Printf("against %s\n", target)
	fmt.Printf("  %d requests in %v: %d ok, %d admission-rejected (429), %d shed (503), %d rate-limited (code 17), %d deadline-exceeded, %d errors\n",
		res.Requests, res.Duration.Round(time.Millisecond), res.OK, res.Rejected, res.Shed, res.RateLimited, res.DeadlineExceeded, res.Errors)
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
	fmt.Printf("  proxy health: %d replicas up, %d down; hedged %d (wins %d), failovers %d\n",
		st.Up, st.Down, st.Hedged, st.HedgeWins, st.Failovers)
}

// cpuModel best-effort reads the host CPU model for the baseline's recorded
// block.
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
