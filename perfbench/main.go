// Command perfbench measures the reach-estimate service end to end and layer
// by layer, on three workloads (see README.md):
//
//	perfbench --workload reprobe|fresh|table1 --seed N --seconds S --trace 0|1
//
// It starts the sharded deployment (two shard servers behind the
// scatter-gather proxy, the Marketing API in front) on loopback HTTP, drives
// the workload's traffic in a closed loop for S seconds, checks every answer
// against an uncached oracle, and prints one JSON object as its last line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"slices"
	"time"

	"nanotarget/internal/stats"
)

const (
	// setups is how many times a run starts the deployment to time set-up.
	setups = 9
	// parts is how many slices the measurement window is cut into.
	parts = 5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "reprobe, fresh or table1")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
		seconds = flag.Int("seconds", 10, "length of the measurement window")
		trace   = flag.Int("trace", 0, "1 = record per-layer spans and report per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	began := time.Now()
	var (
		w   workload
		err error
	)
	switch name {
	case "reprobe":
		w = newReprobe(seed)
	case "fresh":
		w = newFresh(seed)
	case "table1":
		w, err = newStudy(seed)
	default:
		err = fmt.Errorf("unknown --workload %q (want reprobe, fresh or table1)", name)
	}
	if err != nil {
		return err
	}

	// The callers' own client keeps one idle connection per caller, so
	// client-side connection churn does not blur the service's numbers.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = clients
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	defer transport.CloseIdleConnections()

	var tr *tracer
	if traced {
		tr = &tracer{}
		installRPCProbe()
	}
	st, setup, err := timedStart(tr, w.cacheMode(), setups)
	if err != nil {
		return fmt.Errorf("starting the deployment: %w", err)
	}
	defer st.close()

	prepared := time.Now()
	if err := w.warm(st, client); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	hits0, misses0 := st.cacheCounts()
	var shardConns0 int64
	if tr != nil {
		shardConns0 = tr.shardConns.Load()
		tr.on.Store(true)
	}
	window := time.Duration(seconds) * time.Second
	start := time.Now()
	res := w.measure(st, client, start, start.Add(window))
	elapsed := time.Since(start)
	if tr != nil {
		tr.on.Store(false)
	}
	hits, misses := st.cacheCounts()
	hits, misses = hits-hits0, misses-misses0

	if res.attempted == 0 || len(res.answered) == 0 {
		return fmt.Errorf("no request answered in %v", elapsed)
	}
	o, err := newOracle()
	if err != nil {
		return fmt.Errorf("building the oracle: %w", err)
	}
	bad, err := w.verify(o, res.answers)
	if err != nil {
		return fmt.Errorf("verifying answers: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: inputs and set-up %.1fs, warm-up %.1fs, window %.1fs, verification %.1fs\n",
		name, prepared.Sub(began).Seconds(), start.Sub(prepared).Seconds(), elapsed.Seconds(), time.Since(start.Add(elapsed)).Seconds())

	out := report{
		Correct:   bad == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		p50, p99, rps, err := windowed(res.answered, window, parts)
		if err != nil {
			return err
		}
		out.Metrics["latency_p50_ms"] = metric{p50, "ms"}
		out.Metrics["latency_p99_ms"] = metric{p99, "ms"}
		out.Metrics["throughput_rps"] = metric{rps, "1/s"}
		out.Metrics["setup_s"] = metric{setup, "s"}
	} else {
		layerMetrics(out.Metrics, tr.snapshot(), res.answered)
		out.Metrics["shard_conns"] = metric{float64(tr.shardConns.Load() - shardConns0), "count"}
		ratio := 0.0
		if hits+misses > 0 {
			ratio = float64(hits) / float64(hits+misses)
		}
		out.Metrics["cache_hit_ratio"] = metric{ratio, "ratio"}
		out.Metrics["cache_misses_per_req"] = metric{float64(misses) / float64(len(res.answered)), "count"}
		out.Metrics["rows"] = metric{float64(st.rows()), "count"}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d answers differ from the oracle\n", bad)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerMetrics splits the mean request time into its layers' self times.
// Means, unlike medians, add up: http + edge + api + fold + rpc_wait is the
// callers' mean latency.
func layerMetrics(m map[string]metric, t totals, answered []sample) {
	ms := func(d float64) float64 { return d / float64(time.Millisecond) }
	perReq := func(d time.Duration) float64 { return ms(float64(d)) / float64(max(t.requests, 1)) }
	perRPC := func(d time.Duration) float64 { return ms(float64(d)) / float64(max(t.rpcs, 1)) }
	latency := 0.0
	for _, s := range answered {
		latency += s.ms
	}
	latency /= float64(len(answered))
	m["http_ms"] = metric{latency - perReq(t.edge), "ms"}
	m["edge_ms"] = metric{perReq(t.edge - t.api), "ms"}
	m["api_ms"] = metric{perReq(t.api - t.backend), "ms"}
	m["fold_ms"] = metric{perReq(t.backend - t.rpcWait), "ms"}
	m["rpc_wait_ms"] = metric{perReq(t.rpcWait), "ms"}
	m["rpc_ms"] = metric{perRPC(t.rpcTotal), "ms"}
	m["wire_ms"] = metric{perRPC(t.rpcTotal - t.shard), "ms"}
	m["shard_ms"] = metric{perRPC(t.shard), "ms"}
	m["rpcs_per_req"] = metric{float64(t.rpcs) / float64(max(t.requests, 1)), "count"}
}

// windowed splits the measurement window into parts equal slices by
// completion time and returns the medians, across slices, of each slice's
// p50 and p99 latency and throughput. A burst of interference from outside
// the benchmark then moves one slice, not the reported figure. Requests
// completing after the window closed are left out.
func windowed(answered []sample, window time.Duration, parts int) (p50, p99, rps float64, err error) {
	lat := make([][]float64, parts)
	for _, s := range answered {
		if k := int(s.at * time.Duration(parts) / window); k < parts {
			lat[k] = append(lat[k], s.ms)
		}
	}
	var p50s, p99s, rpss []float64
	for k, l := range lat {
		if len(l) == 0 {
			return 0, 0, 0, fmt.Errorf("no request completed in slice %d of the window", k)
		}
		a, _ := stats.Quantile(l, 0.50)
		b, _ := stats.Quantile(l, 0.99)
		p50s, p99s = append(p50s, a), append(p99s, b)
		rpss = append(rpss, float64(len(l))/(window.Seconds()/float64(parts)))
	}
	return median(p50s), median(p99s), median(rpss), nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
