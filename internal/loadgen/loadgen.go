// Package loadgen replays the paper's abuse workload against a running
// fbadsd instance: thousands of simulated advertiser accounts, each holding
// a fixed random interest set and hammering /reachestimate with permuted
// re-probes of that set (the §4 collection pattern an attacker distributes
// across accounts to dodge per-token limits). The runner measures what the
// serving tier is benchmarked on — p50/p95/p99 latency and sustained
// throughput — and classifies every response: admitted, admission-throttled
// (HTTP 429 from internal/serving), load-shed (HTTP 503 + Retry-After from
// the concurrency gate — the server protecting itself, not breaking),
// platform rate-limited (FB code 17), deadline-exceeded (HTTP 504 or a
// request-level timeout) or errored.
//
// The workload is deterministic for a fixed Config: account a's interest
// set comes from the derived stream "account-<a>" of the master seed, and
// probe p permutes it under "probe-<p>". Only the interleaving across
// concurrent workers varies between runs.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"nanotarget/internal/adsapi"
	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/rng"
	"nanotarget/internal/serving"
	"nanotarget/internal/stats"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080". The runner
	// appends the /v9.0/act_<n>/reachestimate paths itself.
	BaseURL string

	// Accounts is the number of simulated advertiser accounts
	// (default 1000). Account n probes as act_<n+1>.
	Accounts int

	// ProbesPerAccount is how many permuted re-probes each account sends
	// (default 20).
	ProbesPerAccount int

	// Interests is the size of each account's interest set (default 18,
	// inside every era's max-interests rule).
	Interests int

	// CatalogSize bounds the interest IDs accounts may probe; IDs are
	// drawn uniformly from [1, CatalogSize). It must match the server's
	// -catalog or probes fail validation.
	CatalogSize int

	// Concurrency is the number of in-flight requests (0 = one per core).
	Concurrency int

	// Seed fixes the workload (account interest sets and probe
	// permutations).
	Seed uint64

	// AccessToken is sent with every request when non-empty.
	AccessToken string

	// Timeout bounds each request (default 30s).
	Timeout time.Duration

	// RequestTimeout, when positive, puts a per-request context deadline
	// on every probe. The server propagates it through the serving stack
	// (adsapi handler context → proxy → shard RPC), so a
	// run with a tight RequestTimeout measures deadline behaviour, not
	// just client-side give-up. Expired probes tally as DeadlineExceeded.
	RequestTimeout time.Duration

	// Client overrides the HTTP client (tests aim it at an httptest
	// server's transport). Nil uses a fresh client with Timeout whose
	// transport keeps one idle connection per concurrent worker, so the run
	// measures the server rather than its own connection churn.
	Client *http.Client
}

// Result aggregates one load run.
type Result struct {
	Requests    int `json:"requests"`
	OK          int `json:"ok"`
	Rejected    int `json:"rejected"`     // HTTP 429 from admission control
	RateLimited int `json:"rate_limited"` // FB error code 17 (per-token limiter)
	// Shed counts 503s carrying Retry-After — the concurrency gate
	// refusing an over-capacity request. Distinct from Errors: a shed
	// request was answered by a healthy server protecting itself.
	Shed int `json:"shed"`
	// DeadlineExceeded counts probes that outran their deadline: HTTP 504
	// (the serving stack abandoned the estimate) or a request-level
	// timeout. Distinct from Errors (transport broke) and from Shed.
	DeadlineExceeded int           `json:"deadline_exceeded"`
	Errors           int           `json:"errors"`
	Duration         time.Duration `json:"-"`
	DurationMs       float64       `json:"duration_ms"`
	Throughput       float64       `json:"throughput_rps"`
	P50Ms            float64       `json:"p50_ms"`
	P95Ms            float64       `json:"p95_ms"`
	P99Ms            float64       `json:"p99_ms"`
}

func (c Config) withDefaults() Config {
	if c.Accounts <= 0 {
		c.Accounts = 1000
	}
	if c.ProbesPerAccount <= 0 {
		c.ProbesPerAccount = 20
	}
	if c.Interests <= 0 {
		c.Interests = 18
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// newTransport returns the default client's transport: built from scratch,
// not cloned from http.DefaultTransport (which a caller may have replaced),
// with an idle pool per host of one connection per worker. The default
// transport's pool of 2 closes and re-dials connections whenever more than
// two workers finish at once.
func newTransport(workers int) *http.Transport {
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConnsPerHost: workers,
		IdleConnTimeout:     90 * time.Second,
	}
}

// Run replays the configured workload and reports latency and throughput.
// Individual request failures are counted, not fatal; Run errors only on a
// misconfiguration (no BaseURL, catalog too small) or a canceled context.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return Result{}, errors.New("loadgen: Config.BaseURL is required")
	}
	if cfg.CatalogSize <= cfg.Interests {
		return Result{}, fmt.Errorf("loadgen: catalog size %d cannot cover %d distinct interests per account",
			cfg.CatalogSize, cfg.Interests)
	}
	workers := parallel.Workers(cfg.Concurrency)
	client := cfg.Client
	if client == nil {
		transport := newTransport(workers)
		defer transport.CloseIdleConnections()
		client = &http.Client{Timeout: cfg.Timeout, Transport: transport}
	}

	sets := accountSets(cfg)
	urls := probeURLs(cfg, sets)

	n := len(urls)
	// Latency slots start as NaN sentinels: only requests that actually got
	// an HTTP response record a latency, so a request that failed to build
	// or errored in transport cannot drag the quantiles toward zero.
	latencies := make([]float64, n)
	for i := range latencies {
		latencies[i] = math.NaN()
	}
	var ok, rejected, rateLimited, shed, deadline, failed atomic.Int64
	// unanswered tallies a request that got no complete response. A
	// timed-out probe is the deadline machinery working, not the transport
	// breaking — but only while the RUN's context is live; a canceled run
	// would misread every in-flight probe.
	unanswered := func(err error) {
		if ctx.Err() == nil && isTimeout(err) {
			deadline.Add(1)
		} else {
			failed.Add(1)
		}
	}
	start := time.Now()
	err := parallel.ForEach(ctx, n, workers, func(i int) error {
		rctx := ctx
		if cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			rctx, cancel = context.WithTimeout(ctx, cfg.RequestTimeout)
			defer cancel()
		}
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, urls[i], nil)
		if err != nil {
			failed.Add(1)
			return nil
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			unanswered(err)
			return nil
		}
		latency := float64(time.Since(t0)) / float64(time.Millisecond)
		// A status line is not an answer: a body cut short (the server
		// died mid-response) is a failed request whatever its status.
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			unanswered(err)
			return nil
		}
		latencies[i] = latency
		switch classify(resp.StatusCode, resp.Header, body) {
		case outcomeOK:
			ok.Add(1)
		case outcomeRejected:
			rejected.Add(1)
		case outcomeRateLimited:
			rateLimited.Add(1)
		case outcomeShed:
			shed.Add(1)
		case outcomeDeadline:
			deadline.Add(1)
		default:
			failed.Add(1)
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Requests:         n,
		OK:               int(ok.Load()),
		Rejected:         int(rejected.Load()),
		RateLimited:      int(rateLimited.Load()),
		Shed:             int(shed.Load()),
		DeadlineExceeded: int(deadline.Load()),
		Errors:           int(failed.Load()),
		Duration:         elapsed,
		DurationMs:       float64(elapsed) / float64(time.Millisecond),
	}
	if elapsed > 0 {
		res.Throughput = float64(n) / elapsed.Seconds()
	}
	answered := latencies[:0]
	for _, l := range latencies {
		if !math.IsNaN(l) {
			answered = append(answered, l)
		}
	}
	res.P50Ms, _ = stats.Quantile(answered, 0.50)
	res.P95Ms, _ = stats.Quantile(answered, 0.95)
	res.P99Ms, _ = stats.Quantile(answered, 0.99)
	return res, nil
}

// FetchServingHealth scrapes GET /<version>/serving/health from a running
// fbadsd and returns the proxy's replica-level health and hedging tallies
// (Hedged, HedgeWins, Failovers). Servers whose
// backend is not a replica proxy answer 404; that is reported as (nil, nil)
// so callers can skip the tallies rather than fail the run.
func FetchServingHealth(ctx context.Context, client *http.Client, baseURL, accessToken string) (*serving.HealthStats, error) {
	if client == nil {
		client = http.DefaultClient
	}
	u := strings.TrimSuffix(baseURL, "/") + "/" + adsapi.APIVersion + "/serving/health"
	if accessToken != "" {
		u += "?access_token=" + url.QueryEscape(accessToken)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("loadgen: serving health: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var st serving.HealthStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("loadgen: serving health: %w", err)
	}
	return &st, nil
}

// accountSets draws each account's fixed interest set: Interests distinct
// IDs from [1, CatalogSize), chosen by the account's derived stream.
func accountSets(cfg Config) [][]interest.ID {
	master := rng.New(cfg.Seed)
	sets := make([][]interest.ID, cfg.Accounts)
	for a := range sets {
		r := master.Derive(fmt.Sprintf("account-%d", a))
		seen := make(map[interest.ID]bool, cfg.Interests)
		ids := make([]interest.ID, 0, cfg.Interests)
		for len(ids) < cfg.Interests {
			id := interest.ID(1 + r.Intn(cfg.CatalogSize-1))
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sets[a] = ids
	}
	return sets
}

// probeURLs builds every request up front: probe p of account a permutes
// the account's set under the derived stream "probe-<p>", so re-probes hit
// the same conjunction in different orders — the workload the canonical
// audience cache and the admission tier are designed around.
func probeURLs(cfg Config, sets [][]interest.ID) []string {
	master := rng.New(cfg.Seed)
	base := strings.TrimSuffix(cfg.BaseURL, "/")
	urls := make([]string, 0, cfg.Accounts*cfg.ProbesPerAccount)
	geo := adsapi.GeoLocations{Countries: []string{"US"}}
	for a, set := range sets {
		accRNG := master.Derive(fmt.Sprintf("account-%d-probes", a))
		ids := append([]interest.ID(nil), set...)
		for p := 0; p < cfg.ProbesPerAccount; p++ {
			r := accRNG.Derive(fmt.Sprintf("probe-%d", p))
			r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			spec, err := json.Marshal(adsapi.ConjunctionSpec(geo, ids))
			if err != nil {
				panic(err) // specs are plain structs; Marshal cannot fail
			}
			q := url.Values{"targeting_spec": {string(spec)}}
			if cfg.AccessToken != "" {
				q.Set("access_token", cfg.AccessToken)
			}
			urls = append(urls, fmt.Sprintf("%s/%s/act_%d/reachestimate?%s",
				base, adsapi.APIVersion, a+1, q.Encode()))
		}
	}
	return urls
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeRejected
	outcomeRateLimited
	outcomeShed
	outcomeDeadline
	outcomeError
)

// classify buckets a response: 200 OK, 429 admission rejection, 503 +
// Retry-After load shed (a 503 WITHOUT Retry-After is a real outage — the
// proxy's fail-policy 503 — and stays an error), 504 deadline exhaustion,
// FB code 17 per-token rate limit, anything else an error.
func classify(status int, header http.Header, body []byte) outcome {
	switch status {
	case http.StatusOK:
		return outcomeOK
	case http.StatusTooManyRequests:
		return outcomeRejected
	case http.StatusServiceUnavailable:
		if header.Get("Retry-After") != "" {
			return outcomeShed
		}
	case http.StatusGatewayTimeout:
		return outcomeDeadline
	}
	var envelope struct {
		Error adsapi.APIError `json:"error"`
	}
	if json.Unmarshal(body, &envelope) == nil && envelope.Error.Code == 17 {
		return outcomeRateLimited
	}
	return outcomeError
}

// isTimeout reports whether a transport error is a deadline expiring (the
// per-request context or a net-level timeout) rather than a broken socket.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var uerr *url.Error
	return errors.As(err, &uerr) && uerr.Timeout()
}
