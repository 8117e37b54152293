package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Policy selects how a ProxyBackend behaves when shards are unreachable.
// Every shard's shares equal the single world's, so under either policy a
// served answer is exact; the policies differ in whether a down shard
// refuses service or is routed around.
type Policy int

const (
	// PolicyFail refuses to serve while any shard is down: an estimate whose
	// shard cannot answer, and every estimate after it until a probe finds
	// the shard alive again, returns *UnavailableError (the HTTP tier turns
	// it into a 503 whose JSON body names the down shard's replicas).
	PolicyFail Policy = iota
	// PolicyRenormalize keeps serving: an estimate whose shard cannot answer
	// is asked of the next shard in rotation order, and the answer is still
	// exact. While a shard is down, HTTP responses are stamped
	// "degraded": true — the topology is running short of a shard, not the
	// answer short of its mass.
	PolicyRenormalize
)

// Both policies concern SHARDS, not replicas: a shard counts as down only
// when no replica of it can answer. Losing a replica of a multi-replica
// shard degrades nothing — the surviving replicas serve the byte-identical
// world, so failover between them is exact.

// ParsePolicy maps the CLI spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fail":
		return PolicyFail, nil
	case "renormalize":
		return PolicyRenormalize, nil
	}
	return 0, fmt.Errorf("serving: unknown degradation policy %q (want fail or renormalize)", s)
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == PolicyRenormalize {
		return "renormalize"
	}
	return "fail"
}

// UnavailableError reports that the proxy cannot serve: under PolicyFail any
// dead shard (every replica down) triggers it; under PolicyRenormalize only
// losing every shard does. ProxyBackend.ReachShares returns it, and the HTTP
// tier answers 503 naming the down shards (adsapi.Server.writeBackendError).
type UnavailableError struct {
	// Down lists the unreachable replicas' base URLs.
	Down []string
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("serving: backend unavailable: %d shard(s) down: %s",
		len(e.Down), strings.Join(e.Down, ", "))
}

// CanceledError reports that the caller's context ended (cancel or
// deadline) before the backend finished the query. The sharded backends'
// ReachShares return it, and the HTTP tier answers 504 for an
// expired deadline, 503 for a plain cancel (adsapi.Server.writeBackendError).
type CanceledError struct {
	// Err is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("serving: query abandoned: %v", e.Err)
}

// Unwrap exposes the context error to errors.Is.
func (e *CanceledError) Unwrap() error { return e.Err }

// ShardHealth is one replica's probe state. Single-replica topologies get one
// row per shard (Replica 0), so existing consumers indexing Shards by shard
// keep working; replicated topologies get one row per (shard, replica) in
// shard-major order.
type ShardHealth struct {
	Shard      int       `json:"shard"`
	Replica    int       `json:"replica"`
	URL        string    `json:"url"`
	Up         bool      `json:"up"`
	LastError  string    `json:"last_error,omitempty"`
	LastProbe  time.Time `json:"last_probe"`
	LastChange time.Time `json:"last_change"`
	// Breaker is the replica's circuit-breaker position ("closed", "open",
	// "half-open") — data-path verdicts, orthogonal to probe-owned Up.
	Breaker string `json:"breaker,omitempty"`
}

// HealthStats snapshots the proxy's view of the topology. Up/Down count
// REPLICAS (so they keep their historical meaning on single-replica
// topologies); the hedging tallies count RPC-level events since the proxy
// started.
type HealthStats struct {
	Up     int   `json:"up"`
	Down   int   `json:"down"`
	Rounds int64 `json:"rounds"` // completed probe rounds
	// Hedged counts secondary replica attempts launched while hedging is
	// armed — by the hedge timer expiring or by the running attempt failing.
	Hedged int64 `json:"hedged,omitempty"`
	// HedgeWins counts hedged attempts that answered first.
	HedgeWins int64 `json:"hedge_wins,omitempty"`
	// Failovers counts sequential replica failovers (hedging disarmed).
	Failovers int64 `json:"failovers,omitempty"`
	// RetryBudgetExhausted counts RPCs abandoned because their query's
	// shared retry budget ran dry (each counts as that shard's failure).
	RetryBudgetExhausted int64         `json:"retry_budget_exhausted,omitempty"`
	Shards               []ShardHealth `json:"shards"`
}

// healthMonitor tracks per-replica up/down state for a ProxyBackend. Replicas
// start up (optimistic): a dead replica is discovered by the first probe
// round or the first RPC that fails against it, whichever comes first. A down
// replica rejoins ONLY through a successful health probe — the data path
// never resurrects one, so failover behaviour is a function of probe cadence,
// not query traffic.
type healthMonitor struct {
	now func() time.Time

	mu     sync.Mutex
	shards [][]replicaHealthState
	rounds int64
}

type replicaHealthState struct {
	url        string
	up         bool
	lastErr    string
	lastProbe  time.Time
	lastChange time.Time
}

func newHealthMonitor(shards [][]string, now func() time.Time) *healthMonitor {
	h := &healthMonitor{now: now, shards: make([][]replicaHealthState, len(shards))}
	t := now()
	for i, reps := range shards {
		h.shards[i] = make([]replicaHealthState, len(reps))
		for r, u := range reps {
			h.shards[i][r] = replicaHealthState{url: u, up: true, lastChange: t}
		}
	}
	return h
}

// liveReplicas returns the indices of a shard's up replicas, in replica
// order — the failover/hedging candidate list (lowest live index preferred).
func (h *healthMonitor) liveReplicas(shard int) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var live []int
	for r, s := range h.shards[shard] {
		if s.up {
			live = append(live, r)
		}
	}
	return live
}

// deadURLs returns, as one consistent snapshot, the replica URLs of every
// dead shard (a shard is dead only when EVERY replica is down).
func (h *healthMonitor) deadURLs() (urls []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, reps := range h.shards {
		allDown := true
		for _, s := range reps {
			if s.up {
				allDown = false
				break
			}
		}
		if allDown {
			for _, s := range reps {
				urls = append(urls, s.url)
			}
		}
	}
	return urls
}

// markDown records a replica failure (probe or data path).
func (h *healthMonitor) markDown(shard, replica int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.shards[shard][replica]
	now := h.now()
	s.lastProbe = now
	s.lastErr = err.Error()
	if s.up {
		s.up = false
		s.lastChange = now
	}
}

// markUp records a successful probe.
func (h *healthMonitor) markUp(shard, replica int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.shards[shard][replica]
	now := h.now()
	s.lastProbe = now
	s.lastErr = ""
	if !s.up {
		s.up = true
		s.lastChange = now
	}
}

func (h *healthMonitor) snapshot() HealthStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HealthStats{Rounds: h.rounds}
	for i, reps := range h.shards {
		for r, s := range reps {
			st.Shards = append(st.Shards, ShardHealth{
				Shard: i, Replica: r, URL: s.url, Up: s.up, LastError: s.lastErr,
				LastProbe: s.lastProbe, LastChange: s.lastChange,
			})
			if s.up {
				st.Up++
			} else {
				st.Down++
			}
		}
	}
	return st
}

// HealthStats snapshots per-replica up/down state, last errors, probe
// bookkeeping (timestamps come from the injectable clock), each replica's
// circuit-breaker position, and the hedging/failover tallies.
func (p *ProxyBackend) HealthStats() HealthStats {
	st := p.health.snapshot()
	for i := range st.Shards {
		row := &st.Shards[i]
		row.Breaker = p.breakers[row.Shard][row.Replica].State().String()
	}
	st.Hedged = p.hedged.Load()
	st.HedgeWins = p.hedgeWins.Load()
	st.Failovers = p.failovers.Load()
	st.RetryBudgetExhausted = p.budgetExhausted.Load()
	return st
}

// Degraded reports whether a PolicyRenormalize proxy is serving with a shard
// down: a shard none of whose replicas is both marked up and past its
// breaker. A replica a probe marked up while its breaker is still open
// counts as down, since estimates fast-fail it. A down replica of a shard
// with a usable sibling does NOT degrade — the sibling serves the
// byte-identical world. Answers stay exact either way; the adsapi server
// stamps reach responses "degraded": true while this holds.
func (p *ProxyBackend) Degraded() bool {
	if p.policy != PolicyRenormalize {
		return false
	}
	for i := range p.shards {
		if !p.usable(i) {
			return true
		}
	}
	return false
}

// usable reports whether shard i has a replica that is marked up and whose
// breaker is not open.
func (p *ProxyBackend) usable(i int) bool {
	for _, r := range p.health.liveReplicas(i) {
		if p.breakers[i][r].State() != BreakerOpen {
			return true
		}
	}
	return false
}

// ProbeNow runs one synchronous health-probe round: every replica's
// /shard/v1/health endpoint is fetched (in parallel, under the probe timeout)
// and its identity — shard index, shard count, user-ID range, catalog size,
// total population — is checked against the proxy's own configuration, so a
// replica serving the wrong world (or the wrong slice of the right world) is
// treated as down rather than asked. Every check compares
// against the proxy's config-derived expectation, so any two replicas that
// both pass are byte-identical worlds by construction (shard models are
// share-calibrated pure functions of the config and range) — which is what
// makes replica failover exact. Tests drive failover deterministically by
// calling ProbeNow directly; production uses StartHealth, which hands its
// loop context down.
//
// Probe results deliberately do NOT feed the circuit breakers: the case the
// breaker exists for is a flapping replica whose health endpoint answers (so
// probes keep resurrecting it) while its data RPCs time out — only data-path
// successes may close a breaker.
func (p *ProxyBackend) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range p.shards {
		for r := range p.shards[i] {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				err := p.probeReplica(ctx, i, r)
				switch {
				case err == nil:
					p.health.markUp(i, r)
				case ctx.Err() != nil:
					// The prober itself gave up (StartHealth's loop is
					// stopping): the aborted probe says nothing about the
					// replica, so its verdict stands.
				default:
					p.health.markDown(i, r, err)
				}
			}(i, r)
		}
	}
	wg.Wait()
	p.health.mu.Lock()
	p.health.rounds++
	p.health.mu.Unlock()
}

// probeReplica fetches and verifies one replica's health endpoint under
// min(caller deadline, probe timeout).
func (p *ProxyBackend) probeReplica(ctx context.Context, shard, replica int) error {
	ctx, cancel := context.WithTimeout(ctx, p.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.shards[shard][replica]+shardPathHealth, nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health probe: HTTP %d", resp.StatusCode)
	}
	var info ShardHealthInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return fmt.Errorf("health probe: bad body: %w", err)
	}
	switch {
	case info.Status != "ok":
		return fmt.Errorf("health probe: status %q", info.Status)
	case info.Shard != shard || info.Shards != len(p.shards):
		return fmt.Errorf("health probe: identity mismatch: shard %d/%d, proxy expects %d/%d",
			info.Shard, info.Shards, shard, len(p.shards))
	case info.Lo != p.ranges[shard].Lo || info.Hi != p.ranges[shard].Hi:
		return fmt.Errorf("health probe: range [%d, %d), proxy expects shard %d to own [%d, %d)",
			info.Lo, info.Hi, shard, p.ranges[shard].Lo, p.ranges[shard].Hi)
	case info.CatalogSize != p.catalog.Len():
		return fmt.Errorf("health probe: catalog size %d, proxy world has %d", info.CatalogSize, p.catalog.Len())
	case info.TotalPopulation != p.pop:
		return fmt.Errorf("health probe: total population %d, proxy world has %d", info.TotalPopulation, p.pop)
	}
	return nil
}

// StartHealth launches the periodic probe loop: one ProbeNow per interval
// until ctx is cancelled. The loop runs on the wall clock (time.Ticker); the
// injectable clock only stamps the recorded state, so deterministic tests
// skip StartHealth and call ProbeNow themselves.
func (p *ProxyBackend) StartHealth(ctx context.Context) {
	go func() {
		t := time.NewTicker(p.probeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				p.ProbeNow(ctx)
			}
		}
	}()
}
