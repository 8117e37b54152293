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

// UnavailableError reports that the proxy cannot serve: no replica answered
// an estimate. ProxyBackend.ReachShares returns it, and the HTTP tier
// answers 503 naming the replicas (adsapi.Server.writeBackendError).
type UnavailableError struct {
	// Down lists every replica's base URL: none of them answered.
	Down []string
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("serving: backend unavailable: %d replica(s) down: %s",
		len(e.Down), strings.Join(e.Down, ", "))
}

// CanceledError reports that the caller's context ended (cancel or
// deadline) before the backend finished the query. ProxyBackend's
// ReachShares returns it, and the HTTP tier answers 504 for an expired
// deadline, 503 for a plain cancel (adsapi.Server.writeBackendError).
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

// ShardHealth is one replica's probe state; Replica is its index in
// ProxyConfig.URLs.
type ShardHealth struct {
	Replica    int       `json:"replica"`
	URL        string    `json:"url"`
	Up         bool      `json:"up"`
	LastError  string    `json:"last_error,omitempty"`
	LastProbe  time.Time `json:"last_probe"`
	LastChange time.Time `json:"last_change"`
	// RPCs counts the data-RPC attempts sent to the replica, framed or
	// HTTP (health probes and their reach checks excluded).
	RPCs int64 `json:"rpcs"`
}

// HealthStats snapshots the proxy's view of its replicas. Up/Down count
// replicas; the hedging tallies count RPC-level events since the proxy
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
	// Shards holds one row per replica, in ProxyConfig.URLs order.
	Shards []ShardHealth `json:"shards"`
}

// healthMonitor tracks per-replica up/down state for a ProxyBackend. Replicas
// start up (optimistic): a dead replica is discovered by the first probe
// round or the first RPC that fails against it, whichever comes first. A down
// replica rejoins ONLY through a successful health probe — the data path
// never resurrects one, so failover behaviour is a function of probe cadence,
// not query traffic.
type healthMonitor struct {
	now func() time.Time

	mu       sync.Mutex
	replicas []replicaHealthState
	rounds   int64
}

type replicaHealthState struct {
	url        string
	up         bool
	lastErr    string
	lastProbe  time.Time
	lastChange time.Time
}

func newHealthMonitor(urls []string, now func() time.Time) *healthMonitor {
	h := &healthMonitor{now: now, replicas: make([]replicaHealthState, len(urls))}
	t := now()
	for r, u := range urls {
		h.replicas[r] = replicaHealthState{url: u, up: true, lastChange: t}
	}
	return h
}

// liveFrom returns the indices of the up replicas in rotation order from
// start (start, start+1, …, wrapping) — an estimate's failover and hedging
// candidates, read under one lock.
func (h *healthMonitor) liveFrom(start int) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.replicas)
	live := make([]int, 0, n)
	for k := 0; k < n; k++ {
		if r := (start + k) % n; h.replicas[r].up {
			live = append(live, r)
		}
	}
	return live
}

// markDown records a replica failure (probe or data path).
func (h *healthMonitor) markDown(replica int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.replicas[replica]
	now := h.now()
	s.lastProbe = now
	s.lastErr = err.Error()
	if s.up {
		s.up = false
		s.lastChange = now
	}
}

// markUp records a successful probe.
func (h *healthMonitor) markUp(replica int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.replicas[replica]
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
	for r, s := range h.replicas {
		st.Shards = append(st.Shards, ShardHealth{
			Replica: r, URL: s.url, Up: s.up, LastError: s.lastErr,
			LastProbe: s.lastProbe, LastChange: s.lastChange,
		})
		if s.up {
			st.Up++
		} else {
			st.Down++
		}
	}
	return st
}

// HealthStats snapshots per-replica up/down state, last errors, probe
// bookkeeping (timestamps come from the injectable clock), each replica's
// data-RPC count, and the hedging/failover tallies.
func (p *ProxyBackend) HealthStats() HealthStats {
	st := p.health.snapshot()
	for i := range st.Shards {
		st.Shards[i].RPCs = p.rpcs[i].Load()
	}
	st.Hedged = p.hedged.Load()
	st.HedgeWins = p.hedgeWins.Load()
	st.Failovers = p.failovers.Load()
	return st
}

// ProbeNow runs one synchronous health-probe round over every replica, in
// parallel, each under probeTimeout. A probe first fetches the replica's
// /shard/v1/health endpoint and checks its identity — catalog size, total
// population and world digest (worldDigest) — against the proxy's own
// configuration, so a replica serving another world is treated as down
// rather than asked. Any two replicas that both pass serve the
// byte-identical world (models are pure functions of the config), which is
// what makes failover exact. It then checks the reach path: one reachshares
// RPC for probeBody, sent the way estimates send theirs (a pooled frame
// connection when the replica has one) under the per-RPC Timeout, with no
// retry and no hedge. Only a 200 carrying two shares passes, so a replica
// whose health endpoint answers while its reach RPCs fail or hang stays
// down until it answers them again. Tests drive failover deterministically
// by calling ProbeNow directly; production uses StartHealth, which hands
// its loop context down.
func (p *ProxyBackend) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for r := range p.urls {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			err := p.probeReplica(ctx, r)
			switch {
			case err == nil:
				p.health.markUp(r)
			case ctx.Err() != nil:
				// The prober itself gave up (StartHealth's loop is
				// stopping): the aborted probe says nothing about the
				// replica, so its verdict stands.
			default:
				p.health.markDown(r, err)
			}
		}(r)
	}
	wg.Wait()
	p.health.mu.Lock()
	p.health.rounds++
	p.health.mu.Unlock()
}

// probeTimeout bounds one replica's probe, its reach check included.
const probeTimeout = 2 * time.Second

// probeBody is the reach check's request: no filter and no clauses, the
// smallest reachshares body.
var probeBody = shardShareRequest{}.encode()

// probeReplica verifies one replica's identity and reach path (ProbeNow)
// under min(caller deadline, probeTimeout).
func (p *ProxyBackend) probeReplica(ctx context.Context, replica int) error {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.urls[replica]+shardPathHealth, nil)
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
	case info.CatalogSize != p.catalog.Len():
		return fmt.Errorf("health probe: catalog size %d, proxy world has %d", info.CatalogSize, p.catalog.Len())
	case info.TotalPopulation != p.pop:
		return fmt.Errorf("health probe: total population %d, proxy world has %d", info.TotalPopulation, p.pop)
	case info.World != p.world:
		return fmt.Errorf("health probe: world digest %q, proxy world has %q", info.World, p.world)
	}
	data, status, err := p.attempt(ctx, replica, http.MethodPost, shardPathReach, probeBody)
	switch {
	case err != nil:
		return fmt.Errorf("health probe: reach check: %w", err)
	case status != http.StatusOK:
		return fmt.Errorf("health probe: reach check: HTTP %d: %s", status, truncate(data))
	}
	if err := decodeShares(data, new(float64), new(float64)); err != nil {
		return fmt.Errorf("health probe: reach check: %w", err)
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
