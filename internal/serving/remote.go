// Process-sharded serving: the network topology behind `fbadsd -shard-of` /
// `-proxy`. A ShardServer exposes one shard's reach primitives over a small
// JSON-over-HTTP RPC; a ProxyBackend implements ReachBackend over N shard
// processes — each optionally replicated — by sending each estimate to one
// shard in rotation, with per-RPC timeouts, bounded jittered retry, hedged
// requests, health-checked failover across shards (health.go) and
// per-replica circuit breakers (breaker.go).
//
// # Replication and hedging
//
// Each shard position can be served by a replica SET (ProxyConfig.Shards,
// `fbadsd -proxy "u0a|u0b,u1"`). Replicas of a shard are byte-identical
// worlds by construction — shard models are share-calibrated pure functions
// of (worldcfg.Config, range), and the per-replica health probes verify the
// full identity (index/count/range/population/catalog) against the proxy's
// own config — so routing between them never changes an answer. Per RPC the
// proxy picks the preferred (lowest-index) live replica; on failure it fails
// over to the next live replica, and with HedgeAfter armed it additionally
// fires the SAME request at the next live replica once the hedge delay
// elapses without an answer — first success wins and the losers' contexts
// are canceled (their breakers see OnCanceled, not OnFailure). Only when
// EVERY replica of the chosen shard fails does the degradation policy
// decide between trying the next shard and refusing.
//
// # Deadline propagation
//
// Every proxy query threads the caller's context end to end: retry backoff
// sleeps select on it, each RPC attempt runs under min(caller deadline,
// per-RPC timeout), and the remaining budget crosses the wire in an
// X-Deadline-Ms header so a ShardServer abandons work whose caller has
// already given up (responding 504, which the proxy treats as permanent).
//
// # Exactness
//
// A shard process builds its model with the same range arithmetic and
// share-based calibration as ShardedBackend (NewShardBackend), so its
// shares equal the single world's bit for bit — every shard's, every
// replica's. Go's encoding/json round-trips float64 exactly
// (shortest-representation encoding, exact parse), so the wire adds no
// error either. The proxy therefore returns the answering shard's pair
// unchanged, and every answer it serves — healthy, after replica failover,
// or after failing over to another shard — is byte-identical to
// LocalBackend's: property-gated in remote_test.go over replicas {1,2} ×
// shards {1,2,3} × seeds {0,1,42}, hedging armed.
//
// The fused reach-shares RPC carries both factors of one estimate, computed
// by the same two engine calls the single-share endpoints make, so one RPC
// answers an estimate.
//
// # Connections
//
// Every RPC and health probe of the default proxy client rides one
// keep-alive transport (NewShardTransport) whose idle pool per replica host
// covers the proxy's peak concurrent RPCs, so a reach estimate costs one
// round trip on a connection that is already open.
package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// DeadlineHeader carries the caller's remaining deadline budget, in whole
// milliseconds, on every shard RPC the proxy issues under a deadline. A
// ShardServer honors it by serving the request under that timeout and
// answering 504 once it expires — cooperative cancellation across the
// process boundary, where the caller's context cannot reach.
const DeadlineHeader = "X-Deadline-Ms"

// Shard RPC paths (all rooted under /shard/v1).
const (
	shardPathHealth = "/shard/v1/health"
	shardPathDemo   = "/shard/v1/demoshare"
	shardPathUnion  = "/shard/v1/unionshare"
	shardPathReach  = "/shard/v1/reachshares"
	shardPathConj   = "/shard/v1/conjunctionshare"
	shardPathStats  = "/shard/v1/stats"
	shardPathWarm   = "/shard/v1/warmrows"
)

// shardIdleConnsPerHost is the shard transport's idle-connection pool per
// replica host. It must cover the proxy's peak concurrent RPCs to one
// replica — each in-flight estimate holds at most one RPC, so that is the
// API tier's in-flight cap (fbadsd -max-inflight, e.g. 256) — so a burst
// hands every connection back to the pool instead of closing the overflow
// and re-dialing it on the next burst.
const shardIdleConnsPerHost = 256

// NewShardTransport returns the keep-alive transport for shard RPCs and
// health probes: the default proxy client's transport, and the base a
// fault-injecting wrapper should delegate to. It is built from scratch
// rather than cloned from http.DefaultTransport, which a caller may have
// replaced with a wrapper. Shard traffic goes direct (no environment
// proxy), the total idle pool is unlimited, and neither dials nor the
// client carry a timeout: every RPC's and probe's context already carries
// its deadline.
func NewShardTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: shardIdleConnsPerHost,
		IdleConnTimeout:     90 * time.Second,
	}
}

// ShardHealthInfo is the health endpoint's payload: enough identity for the
// proxy to verify the shard serves the same world at the same split before
// asking it (ProbeNow rejects mismatches as down).
type ShardHealthInfo struct {
	Status string `json:"status"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	Lo     int64  `json:"lo"`
	Hi     int64  `json:"hi"`
	// Population is the shard-local model population (Hi - Lo).
	Population int64 `json:"population"`
	// TotalPopulation is the whole topology's user base.
	TotalPopulation int64 `json:"total_population"`
	CatalogSize     int   `json:"catalog_size"`
}

// shardShareRequest is the request body shared by the share endpoints; each
// endpoint reads the fields it needs (the fused reach-shares endpoint reads
// Filter and Clauses).
type shardShareRequest struct {
	Filter  *population.DemoFilter `json:"filter,omitempty"`
	Clauses [][]interest.ID        `json:"clauses,omitempty"`
	IDs     []interest.ID          `json:"ids,omitempty"`
}

type shardShareResponse struct {
	Share float64 `json:"share"`
}

// sharePair is one shard's answer to a reach estimate, both factor shares:
// the fused reach-shares RPC's response body.
type sharePair struct {
	Demo  float64 `json:"demo"`
	Union float64 `json:"union"`
}

type shardErrorBody struct {
	Error struct {
		Message string `json:"message"`
	} `json:"error"`
}

// ShardInfo identifies a shard inside its topology.
type ShardInfo struct {
	// Index is the shard's position in [0, Count).
	Index int
	// Count is the topology's shard count.
	Count int
	// Range is the user-ID range the shard owns.
	Range ShardRange
	// TotalPopulation is the whole topology's user base.
	TotalPopulation int64
}

// NewShardBackend builds the world of shard index of count from cfg — the
// identical range arithmetic and model construction ShardedBackend applies
// in-process, packaged for one shard per process (fbadsd -shard-of). The
// returned LocalBackend's shares are bit-identical to in-process shard
// index's — and to every other replica built from the same (cfg, index,
// count), which is what makes proxy-side replica failover exact.
func NewShardBackend(cfg worldcfg.Config, index, count int) (*LocalBackend, ShardInfo, error) {
	pop := cfg.Population.Population
	if err := checkShardCount(count, pop); err != nil {
		return nil, ShardInfo{}, err
	}
	if index < 0 || index >= count {
		return nil, ShardInfo{}, fmt.Errorf("serving: shard index %d outside [0, %d)", index, count)
	}
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, ShardInfo{}, err
	}
	r := shardRange(pop, index, count)
	model, err := cfg.BuildModel(cat, r.Size())
	if err != nil {
		return nil, ShardInfo{}, fmt.Errorf("serving: shard %d: %w", index, err)
	}
	b := &LocalBackend{model: model, engine: cfg.NewEngine(model)}
	return b, ShardInfo{Index: index, Count: count, Range: r, TotalPopulation: pop}, nil
}

// ShardServer serves one shard's reach primitives over the JSON shard RPC:
// the per-process counterpart of a ShardedBackend shard. It is an
// http.Handler; fbadsd mounts it on -shard-listen. The RPC surface trusts
// its caller (the proxy validates specs upstream) but still rejects
// malformed bodies and unknown interest IDs with 400s so a stray request
// cannot crash the shard.
type ShardServer struct {
	backend *LocalBackend
	info    ShardInfo
	mux     *http.ServeMux
}

// NewShardServer wraps a shard backend (NewShardBackend) as its RPC handler.
func NewShardServer(b *LocalBackend, info ShardInfo) (*ShardServer, error) {
	if b == nil {
		return nil, errors.New("serving: ShardServer needs a backend")
	}
	if info.Count < 1 || info.Index < 0 || info.Index >= info.Count {
		return nil, fmt.Errorf("serving: bad shard identity %d/%d", info.Index, info.Count)
	}
	s := &ShardServer{backend: b, info: info}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+shardPathHealth, s.handleHealth)
	mux.HandleFunc("POST "+shardPathDemo, s.handleDemoShare)
	mux.HandleFunc("POST "+shardPathUnion, s.handleUnionShare)
	mux.HandleFunc("POST "+shardPathReach, s.handleReachShares)
	mux.HandleFunc("POST "+shardPathConj, s.handleConjunctionShare)
	mux.HandleFunc("GET "+shardPathStats, s.handleStats)
	mux.HandleFunc("POST "+shardPathWarm, s.handleWarmRows)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler. A DeadlineHeader on the request scopes
// its context to the forwarded budget, so the share handlers can abandon
// work whose caller has stopped waiting (answering 504, see
// deadlineExpired).
func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if raw := r.Header.Get(DeadlineHeader); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s header %q", DeadlineHeader, raw))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// deadlineExpired reports — and answers 504 for — a request whose context
// is already dead when its handler reaches the compute step: the caller
// stopped waiting (forwarded deadline expired or connection dropped), so
// evaluating the share is pure waste. The proxy treats the 504 as a
// permanent RPC failure (no retry).
func (s *ShardServer) deadlineExpired(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		s.writeError(w, http.StatusGatewayTimeout, "deadline exhausted before compute: "+err.Error())
		return true
	}
	return false
}

// Backend exposes the shard's LocalBackend (test and wiring use).
func (s *ShardServer) Backend() *LocalBackend { return s.backend }

// Info exposes the shard's topology identity.
func (s *ShardServer) Info() ShardInfo { return s.info }

func (s *ShardServer) writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

func (s *ShardServer) writeError(w http.ResponseWriter, status int, msg string) {
	var body shardErrorBody
	body.Error.Message = msg
	buf, _ := json.Marshal(body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
}

// decodeShareRequest reads and validates a share-request body: exactly one
// well-formed JSON value with no unknown fields and nothing after it, and
// every interest ID present in the shard's catalog.
func (s *ShardServer) decodeShareRequest(w http.ResponseWriter, r *http.Request) (shardShareRequest, bool) {
	var req shardShareRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return req, false
	}
	cat := s.backend.Catalog()
	check := func(id interest.ID) bool {
		if _, err := cat.Get(id); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown interest %d", id))
			return false
		}
		return true
	}
	for _, clause := range req.Clauses {
		for _, id := range clause {
			if !check(id) {
				return req, false
			}
		}
	}
	for _, id := range req.IDs {
		if !check(id) {
			return req, false
		}
	}
	return req, true
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, ShardHealthInfo{
		Status:          "ok",
		Shard:           s.info.Index,
		Shards:          s.info.Count,
		Lo:              s.info.Range.Lo,
		Hi:              s.info.Range.Hi,
		Population:      s.backend.Population(),
		TotalPopulation: s.info.TotalPopulation,
		CatalogSize:     s.backend.Catalog().Len(),
	})
}

func (s *ShardServer) handleDemoShare(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeShareRequest(w, r)
	if !ok || s.deadlineExpired(w, r) {
		return
	}
	var f population.DemoFilter
	if req.Filter != nil {
		f = *req.Filter
	}
	s.writeJSON(w, shardShareResponse{Share: s.backend.DemoShare(r.Context(), f)})
}

func (s *ShardServer) handleUnionShare(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeShareRequest(w, r)
	if !ok || s.deadlineExpired(w, r) {
		return
	}
	s.writeJSON(w, shardShareResponse{Share: s.backend.UnionShare(r.Context(), req.Clauses)})
}

// handleReachShares serves the fused RPC: both factors of one reach
// estimate, from the same engine calls, in the same order, as the two
// single-share endpoints.
func (s *ShardServer) handleReachShares(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeShareRequest(w, r)
	if !ok || s.deadlineExpired(w, r) {
		return
	}
	var f population.DemoFilter
	if req.Filter != nil {
		f = *req.Filter
	}
	demo, union, _ := s.backend.ReachShares(r.Context(), f, req.Clauses) // a LocalBackend never fails
	s.writeJSON(w, sharePair{Demo: demo, Union: union})
}

func (s *ShardServer) handleConjunctionShare(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeShareRequest(w, r)
	if !ok || s.deadlineExpired(w, r) {
		return
	}
	s.writeJSON(w, shardShareResponse{Share: s.backend.Engine().ConjunctionShare(req.IDs)})
}

func (s *ShardServer) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.backend.AudienceStats(r.Context()))
}

func (s *ShardServer) handleWarmRows(w http.ResponseWriter, r *http.Request) {
	if s.deadlineExpired(w, r) {
		return
	}
	s.backend.WarmRows(r.Context())
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// ParseShardTopology parses the `-proxy` flag's topology spec: shards are
// comma-separated in shard-index order, and each shard is a |-separated
// replica URL set — "u0a|u0b,u1" is shard 0 behind two replicas and shard 1
// behind one.
func ParseShardTopology(s string) ([][]string, error) {
	var shards [][]string
	for _, shard := range strings.Split(s, ",") {
		var reps []string
		for _, u := range strings.Split(shard, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				return nil, fmt.Errorf("serving: empty replica URL in topology %q", s)
			}
			reps = append(reps, u)
		}
		shards = append(shards, reps)
	}
	return shards, nil
}

// ProxyConfig configures a ProxyBackend.
type ProxyConfig struct {
	// URLs are the shard base URLs in shard-index order for the common
	// one-replica-per-shard topology: URLs[i] must serve shard i of
	// len(URLs) (ProbeNow verifies this and marks mismatches down). Set
	// exactly one of URLs and Shards.
	URLs []string
	// Shards is the replicated topology: Shards[i] lists the base URLs of
	// the replicas serving shard i of len(Shards), preference order first.
	// All replicas of a shard must serve the byte-identical shard world
	// (same index/count/range/population/catalog — ProbeNow verifies each
	// replica independently against the proxy's config).
	Shards [][]string
	// Timeout bounds each shard RPC attempt (default 10s).
	Timeout time.Duration
	// MaxRetries bounds per-RPC retries after the first attempt, on network
	// errors, 5xx and 429 (default 2).
	MaxRetries int
	// RetryBase is the initial retry backoff, doubled per retry and
	// stretched by Jitter (default 50ms).
	RetryBase time.Duration
	// RetryBudget caps the TOTAL retries one query may spend across every
	// shard and replica it tries, so a brownout cannot amplify incoming load
	// by shards × MaxRetries. Exhaustion fails the RPC that wanted the retry
	// (tallied as HealthStats.RetryBudgetExhausted) and counts as that
	// shard's failure. 0 defaults to 2 × MaxRetries; negative disables the
	// cap.
	RetryBudget int
	// HedgeAfter arms hedged requests: a shard RPC still unanswered after
	// this delay is duplicated to the shard's next live replica, first
	// success wins, losers are canceled. Zero (the default) disables
	// hedging; replicas then give sequential failover only. The hedge timer
	// sleeps through Sleep, so tests drive it deterministically.
	HedgeAfter time.Duration
	// Jitter supplies the backoff jitter fraction in [0, 1) for a given
	// (shard, replica, attempt); the retry wait is stretched to
	// wait · (1 + jitter/2), i.e. [wait, 1.5·wait), so concurrent queries
	// retrying against the same recovering shard decorrelate instead of
	// arriving in synchronized bursts. Nil uses a deterministic source
	// derived from the world seed; tests inject a constant.
	Jitter func(shard, replica, attempt int) float64
	// Policy selects what an estimate does when its shard (every replica)
	// cannot answer: refuse, or try the next shard (default PolicyFail).
	Policy Policy
	// ProbeInterval is StartHealth's probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// Breaker configures the per-replica circuit breakers (breaker.go). The
	// zero value takes the defaults: trip open after 5 consecutive
	// data-RPC failures, fast-fail for 5s, then one half-open trial. Its
	// Now falls back to ProxyConfig.Now.
	Breaker BreakerConfig
	// Client overrides the HTTP client — tests inject flaky transports
	// through it. Nil uses a client over NewShardTransport (per-request
	// contexts carry the timeouts).
	Client *http.Client
	// Now supplies time for health bookkeeping; defaults to time.Now.
	Now func() time.Time
	// Sleep is the retry-backoff and hedge-delay sleep, swappable for
	// tests; defaults to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// ProxyBackend implements ReachBackend over N shard PROCESSES: the network
// counterpart of ShardedBackend. Every share query is ONE shard RPC to the
// shard whose turn it is (per-RPC timeout, bounded jittered retry under a
// per-query budget; a reach estimate's two factor shares travel together in
// the fused reach-shares RPC), and the answer is that shard's, unchanged —
// byte-identical to LocalBackend (see the package comment's exactness
// argument).
//
// A shard may be served by several replicas (ProxyConfig.Shards). Each
// replica carries its own health state and circuit breaker; the RPC goes to
// the preferred live replica with exact failover — and, when HedgeAfter is
// armed, a hedged duplicate — to the next (see the package comment).
//
// Failure behaviour is governed by the health subsystem (health.go):
// replicas marked down by probes are skipped, RPC failures mark replicas
// down, and the configured Policy decides — only once the chosen shard has
// NO replica that answers — between refusing (PolicyFail returns
// *UnavailableError → HTTP 503) and asking the next shard
// (PolicyRenormalize: the answer stays exact, and responses are stamped
// degraded while a shard is down).
type ProxyBackend struct {
	catalog *interest.Catalog
	pop     int64
	shards  [][]string
	ranges  []ShardRange
	turn    rotation

	timeout       time.Duration
	maxRetries    int
	retryBase     time.Duration
	retryBudget   int // per-query retry cap; <= 0 means uncapped
	hedgeAfter    time.Duration
	jitter        func(shard, replica, attempt int) float64
	policy        Policy
	probeInterval time.Duration
	probeTimeout  time.Duration
	client        *http.Client
	sleep         func(ctx context.Context, d time.Duration) error

	health   *healthMonitor
	breakers [][]*breaker

	hedged          atomic.Int64
	hedgeWins       atomic.Int64
	failovers       atomic.Int64
	budgetExhausted atomic.Int64
}

// NewProxyBackend builds the proxy's local view of the world described by
// cfg: the interest catalog is generated locally (bit-identical to every
// shard's — catalog generation is a pure function of the config), shard
// ranges come from the same integer range arithmetic ShardedBackend uses
// (the health probes check each shard's against them). No shard is
// contacted during construction; replicas start optimistically up and the
// first probe or RPC corrects that.
func NewProxyBackend(cfg worldcfg.Config, pc ProxyConfig) (*ProxyBackend, error) {
	if len(pc.URLs) > 0 && len(pc.Shards) > 0 {
		return nil, errors.New("serving: set ProxyConfig.URLs or ProxyConfig.Shards, not both")
	}
	topo := pc.Shards
	if len(topo) == 0 {
		for _, u := range pc.URLs {
			topo = append(topo, []string{u})
		}
	}
	n := len(topo)
	if n < 1 {
		return nil, errors.New("serving: ProxyConfig needs at least one shard URL")
	}
	pop := cfg.Population.Population
	if err := checkShardCount(n, pop); err != nil {
		return nil, err
	}
	if pc.Timeout <= 0 {
		pc.Timeout = 10 * time.Second
	}
	if pc.MaxRetries < 0 {
		return nil, fmt.Errorf("serving: negative MaxRetries %d", pc.MaxRetries)
	}
	if pc.MaxRetries == 0 {
		pc.MaxRetries = 2
	}
	if pc.RetryBase <= 0 {
		pc.RetryBase = 50 * time.Millisecond
	}
	if pc.RetryBudget == 0 {
		pc.RetryBudget = 2 * pc.MaxRetries
	}
	if pc.HedgeAfter < 0 {
		return nil, fmt.Errorf("serving: negative HedgeAfter %v", pc.HedgeAfter)
	}
	if pc.Jitter == nil {
		pc.Jitter = defaultJitter(cfg.Population.Seed)
	}
	if pc.ProbeInterval <= 0 {
		pc.ProbeInterval = time.Second
	}
	if pc.ProbeTimeout <= 0 {
		pc.ProbeTimeout = 2 * time.Second
	}
	if pc.Client == nil {
		pc.Client = &http.Client{Transport: NewShardTransport()}
	}
	if pc.Now == nil {
		pc.Now = time.Now
	}
	if pc.Sleep == nil {
		pc.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, err
	}
	shards := make([][]string, n)
	ranges := make([]ShardRange, n)
	for i, reps := range topo {
		if len(reps) == 0 {
			return nil, fmt.Errorf("serving: shard %d has no replica URLs", i)
		}
		shards[i] = make([]string, len(reps))
		for r, u := range reps {
			u = strings.TrimSuffix(strings.TrimSpace(u), "/")
			if u == "" {
				return nil, fmt.Errorf("serving: shard %d replica %d has an empty URL", i, r)
			}
			shards[i][r] = u
		}
		ranges[i] = shardRange(pop, i, n)
	}
	if pc.Breaker.Now == nil {
		pc.Breaker.Now = pc.Now
	}
	breakers := make([][]*breaker, n)
	for i := range breakers {
		breakers[i] = make([]*breaker, len(shards[i]))
		for r := range breakers[i] {
			breakers[i][r] = newBreaker(pc.Breaker)
		}
	}
	return &ProxyBackend{
		catalog:       cat,
		pop:           pop,
		shards:        shards,
		ranges:        ranges,
		timeout:       pc.Timeout,
		maxRetries:    pc.MaxRetries,
		retryBase:     pc.RetryBase,
		retryBudget:   pc.RetryBudget,
		hedgeAfter:    pc.HedgeAfter,
		jitter:        pc.Jitter,
		policy:        pc.Policy,
		probeInterval: pc.ProbeInterval,
		probeTimeout:  pc.ProbeTimeout,
		client:        pc.Client,
		sleep:         pc.Sleep,
		health:        newHealthMonitor(shards, pc.Now),
		breakers:      breakers,
	}, nil
}

// defaultJitter derives a deterministic jitter stream from the world seed:
// draw k for (shard, replica, attempt) comes from the derived stream
// "<shard>/<replica>/<attempt>/<k>" of a jitter-dedicated parent. The parent
// Rand is only ever READ (Derive hashes its state without advancing it), so
// concurrent retries may draw without a lock.
func defaultJitter(seed uint64) func(shard, replica, attempt int) float64 {
	parent := rng.New(seed).Derive("proxy-backoff-jitter")
	var seq atomic.Uint64
	return func(shard, replica, attempt int) float64 {
		k := seq.Add(1)
		return parent.Derive(fmt.Sprintf("%d/%d/%d/%d", shard, replica, attempt, k)).Float64()
	}
}

// NumShards returns the topology's shard count.
func (p *ProxyBackend) NumShards() int { return len(p.shards) }

// Catalog implements ReachBackend: the proxy's locally generated catalog,
// bit-identical to every shard's.
func (p *ProxyBackend) Catalog() *interest.Catalog { return p.catalog }

// Population implements ReachBackend.
func (p *ProxyBackend) Population() int64 { return p.pop }

// ReachShares implements ReachBackend with one fused RPC to one shard
// (ask): the answering shard's pair is the estimate, unchanged. It returns
// *UnavailableError when no shard may answer under the policy, and
// *CanceledError when the caller's context ends first.
func (p *ProxyBackend) ReachShares(ctx context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64, err error) {
	var pair sharePair
	err = p.ask(ctx, shardPathReach, shardShareRequest{Filter: &f, Clauses: clauses}, &pair)
	return pair.Demo, pair.Union, err
}

// must adapts an error-returning share query to the float64 share methods
// (DemoShare, UnionShare and ConditionalAudience). They sit outside
// ReachBackend — tests use them as exactness references and perfbench's
// traced backend wraps them — so no program path reaches this panic: the
// reach path returns its errors.
func must(v float64, err error) float64 {
	if err != nil {
		panic(err)
	}
	return v
}

// share asks one shard a one-share RPC (ask).
func (p *ProxyBackend) share(ctx context.Context, path string, req shardShareRequest) (float64, error) {
	var out shardShareResponse
	err := p.ask(ctx, path, req, &out)
	return out.Share, err
}

// DemoShare returns the population share matching a demographic filter, from
// one shard (a float64 adapter; see must).
func (p *ProxyBackend) DemoShare(ctx context.Context, f population.DemoFilter) float64 {
	return must(p.share(ctx, shardPathDemo, shardShareRequest{Filter: &f}))
}

// UnionShare returns the population share matching a union of interest
// conjunctions, from one shard (a float64 adapter; see must).
func (p *ProxyBackend) UnionShare(ctx context.Context, clauses [][]interest.ID) float64 {
	return must(p.share(ctx, shardPathUnion, shardShareRequest{Clauses: clauses}))
}

// ConditionalAudience asks for both factor shares and composes them with the
// GLOBAL population by population.ConditionalAudience — the call
// ShardedBackend.ConditionalAudience makes, so answers match it
// byte-for-byte (a float64 adapter; see must).
func (p *ProxyBackend) ConditionalAudience(ctx context.Context, f population.DemoFilter, ids []interest.ID) float64 {
	demo := must(p.share(ctx, shardPathDemo, shardShareRequest{Filter: &f}))
	conj := must(p.share(ctx, shardPathConj, shardShareRequest{IDs: ids}))
	return population.ConditionalAudience(p.pop, demo, conj)
}

// AudienceStats implements ReachBackend: the fold of every reachable shard's
// cache counters (stats are diagnostics — an unreachable shard, or every
// shard once ctx ends, contributes zeros rather than failing the call). With
// replicas the counters come from whichever replica answered, so they
// describe ITS caches.
func (p *ProxyBackend) AudienceStats(ctx context.Context) audience.Stats {
	bud := p.newQueryBudget()
	stats, _, _ := fanOut(ctx, len(p.shards), len(p.shards), func(ctx context.Context, i int) (st audience.Stats, err error) {
		err = p.callShard(ctx, i, http.MethodGet, shardPathStats, nil, &st, bud)
		return st, err
	})
	var total audience.Stats
	for _, st := range stats {
		total = addStats(total, st)
	}
	return total
}

// WarmRows implements ReachBackend: best-effort — every reachable replica's
// shard materializes its full inclusion-row table. Warming fans out to ALL
// replicas, not just the preferred one: a hedge or failover should land on
// warm rows too.
func (p *ProxyBackend) WarmRows(ctx context.Context) {
	var units []func() error
	for i := range p.shards {
		for r := range p.shards[i] {
			i, r := i, r
			units = append(units, func() error {
				_, _ = p.callReplica(ctx, i, r, http.MethodPost, shardPathWarm, []byte("{}"), nil)
				return nil
			})
		}
	}
	_ = parallel.ForEach(ctx, len(units), len(units), func(k int) error { return units[k]() })
}

// ask sends one share RPC to the shard whose turn it is and decodes its
// answer into out. Per shard the RPC runs against the shard's replica set
// (callShard): only a shard with NO usable replica counts as failed. Then
// the policy decides:
//
//   - PolicyFail: *UnavailableError naming that shard's replicas (the HTTP
//     tier's 503). A PolicyFail proxy that already knows a shard is dead
//     refuses before any RPC, so it keeps refusing until a probe revives it.
//   - PolicyRenormalize: the next shard in rotation order is asked, under
//     the same retry budget; the answer is exact whichever shard gives it.
//     *UnavailableError names every replica only when no shard answers.
//
// The caller's ctx threads into every RPC; if it ends first, ask returns
// *CanceledError, and the failures it caused are not held against the
// replicas.
func (p *ProxyBackend) ask(ctx context.Context, path string, req shardShareRequest, out any) error {
	if p.policy == PolicyFail {
		if down := p.health.deadURLs(); len(down) > 0 {
			return &UnavailableError{Down: down}
		}
	}
	n := len(p.shards)
	first := p.turn.pick(n)
	bud := p.newQueryBudget()
	var down []string
	for k := 0; k < n; k++ {
		i := (first + k) % n
		err := p.callShard(ctx, i, http.MethodPost, path, &req, out, bud)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return &CanceledError{Err: ctx.Err()}
		}
		down = append(down, p.shards[i]...)
		if p.policy == PolicyFail {
			break
		}
	}
	return &UnavailableError{Down: down}
}

// queryBudget is one query's shared retry allowance across every shard and
// replica it tries; a nil budget is uncapped.
type queryBudget struct{ remaining atomic.Int64 }

func (p *ProxyBackend) newQueryBudget() *queryBudget {
	if p.retryBudget <= 0 {
		return nil
	}
	b := &queryBudget{}
	b.remaining.Store(int64(p.retryBudget))
	return b
}

// take consumes one retry from the budget.
func (b *queryBudget) take() bool {
	if b == nil {
		return true
	}
	return b.remaining.Add(-1) >= 0
}

// callShard performs one shard RPC against the shard's replica set
// (callReplicas) and decodes the winning response. A shard-level error means
// NO usable replica produced an answer.
func (p *ProxyBackend) callShard(ctx context.Context, shard int, method, path string, in, out any, bud *queryBudget) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("serving: proxy: marshal %s: %w", path, err)
		}
	}
	candidates := p.health.liveReplicas(shard)
	if len(candidates) == 0 {
		return fmt.Errorf("serving: shard %d: all %d replica(s) marked down", shard, len(p.shards[shard]))
	}
	data, err := p.callReplicas(ctx, shard, candidates, method, path, body, bud)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("serving: shard %d %s: bad response: %w", shard, path, err)
	}
	return nil
}

// callReplicas is the replica loop. The preferred (lowest-index) live
// replica starts immediately; the next candidate takes over with the
// identical request whenever a running attempt fails (counted as a failover,
// or as a hedge when hedging is armed) — and, with HedgeAfter armed and more
// than one candidate, also whenever the hedge delay elapses without an
// answer (a hedge). Hedged attempts race: the first success wins and cancels
// the rest (their breakers observe OnCanceled, a neutral verdict). Replicas
// being byte-identical worlds — every candidate passed the same identity
// probe — is what makes failover exact and "first success wins" sound: the
// bytes cannot depend on the winner. All attempts debit the same shared
// retry budget, so hedging cannot multiply a brownout's retry load.
func (p *ProxyBackend) callReplicas(ctx context.Context, shard int, candidates []int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		order int // launch order: 0 is the preferred replica
		data  []byte
		err   error
	}
	// Buffered to len(candidates): losers deliver and exit without a
	// listener, and an attempt run inline never blocks on its own send.
	results := make(chan outcome, len(candidates))
	hedging := p.hedgeAfter > 0 && len(candidates) > 1
	launched := 0
	launch := func() {
		order, rep := launched, candidates[launched]
		launched++
		attempt := func() {
			data, err := p.callReplica(raceCtx, shard, rep, method, path, body, bud)
			results <- outcome{order: order, data: data, err: err}
		}
		// Only a race needs its own goroutine per attempt; failover
		// attempts run one after another on the caller's goroutine.
		if hedging {
			go attempt()
		} else {
			attempt()
		}
	}
	// The hedge timer re-arms after every fire, so topologies with 3+
	// replicas keep escalating while nobody answers. Disarmed, it is a nil
	// channel that never fires.
	var timer chan struct{}
	armTimer := func() {
		go func() {
			if p.sleep(raceCtx, p.hedgeAfter) == nil {
				select {
				case timer <- struct{}{}:
				default:
				}
			}
		}()
	}
	escalate := func() {
		if hedging {
			p.hedged.Add(1)
		} else {
			p.failovers.Add(1)
		}
		launch()
	}
	launch()
	if hedging {
		timer = make(chan struct{}, 1)
		armTimer()
	}
	var lastErr error
	for failed := 0; failed < launched; {
		select {
		case <-timer:
			if launched < len(candidates) {
				escalate()
				armTimer()
			}
		case res := <-results:
			if res.err == nil {
				if hedging && res.order > 0 {
					p.hedgeWins.Add(1)
				}
				return res.data, nil
			}
			lastErr = res.err
			failed++
			if ctx.Err() != nil {
				// The caller is gone: the remaining replicas would only see
				// the same dead context.
				return nil, res.err
			}
			if launched < len(candidates) {
				// A failed attempt escalates immediately — waiting out the
				// hedge delay would only add latency to a known failure.
				escalate()
			}
		}
	}
	return nil, fmt.Errorf("serving: shard %d %s: every live replica failed: %w", shard, path, lastErr)
}

// callReplica performs one replica RPC under the replica's circuit breaker.
// The whole retrying call is one breaker unit: an open breaker fails it in
// microseconds with *ErrBreakerOpen (no network); otherwise its final
// outcome feeds OnSuccess/OnFailure — unless the passed ctx ended (caller
// gone, or this attempt lost a hedge race), which says nothing about the
// replica and registers as the neutral OnCanceled. A genuine failure also
// marks the replica down in the health monitor; only a probe resurrects it.
func (p *ProxyBackend) callReplica(ctx context.Context, shard, replica int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	br := p.breakers[shard][replica]
	if err := br.Allow(); err != nil {
		return nil, err
	}
	data, err := p.callRetrying(ctx, shard, replica, method, path, body, bud)
	switch {
	case err == nil:
		br.OnSuccess()
	case ctx.Err() != nil:
		br.OnCanceled()
	default:
		br.OnFailure()
		p.health.markDown(shard, replica, err)
	}
	return data, err
}

// callRetrying is callReplica's retry loop, below the breaker. Network
// errors, 5xx and 429 retry up to MaxRetries, each retry also debiting the
// query's shared budget; the backoff doubles per attempt and is stretched
// into [wait, 1.5·wait) by the jitter source — UNLESS the shard advertised
// a Retry-After (the concurrency gate's load-shed 503 and the admission
// tier's 429 both do), which is honored verbatim. Either wait is capped by
// the remaining ctx budget: sleeping past the caller's deadline is pure
// waste. 504 is permanent — the shard abandoned the request because the
// forwarded deadline expired — as are other 4xx.
//
// When ctx ends mid-loop (a lost hedge race, or the caller leaving), the
// call returns the context's error and callReplica keeps the breaker
// neutral. But if the last attempt could not reach the replica at all
// (refused, reset, timed out), that failure is already proof the replica is gone, so
// it still marks the replica down: a race loser must not discard it.
func (p *ProxyBackend) callRetrying(ctx context.Context, shard, replica int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	url := p.shards[shard][replica] + path
	var lastErr error
	var serverWait time.Duration // Retry-After from the last failed attempt
	var unreachable error        // the last attempt's transport failure, if it had one
	abandon := func(err error) ([]byte, error) {
		if unreachable != nil {
			p.health.markDown(shard, replica, unreachable)
		}
		return nil, err
	}
	for attempt := 0; attempt <= p.maxRetries; attempt++ {
		if attempt > 0 {
			if !bud.take() {
				p.budgetExhausted.Add(1)
				return nil, fmt.Errorf("serving: shard %d %s: query retry budget exhausted: %w", shard, path, lastErr)
			}
			wait := p.backoff(shard, replica, attempt)
			if serverWait > 0 {
				wait = serverWait
			}
			if d, ok := ctx.Deadline(); ok {
				if rem := time.Until(d); rem < wait {
					wait = rem
				}
			}
			if err := p.sleep(ctx, wait); err != nil {
				return abandon(err)
			}
		}
		data, status, header, err := p.roundTrip(ctx, method, url, body)
		if err != nil {
			if ctx.Err() != nil {
				// The caller is gone: retrying can only waste shard work.
				return abandon(err)
			}
			lastErr, unreachable = err, err
			serverWait = 0
			continue
		}
		unreachable = nil
		switch {
		case status == http.StatusGatewayTimeout:
			// The shard honored the forwarded deadline and gave up.
			return nil, fmt.Errorf("serving: shard %d %s: HTTP %d: deadline exhausted: %s",
				shard, path, status, truncate(data))
		case status >= 500 || status == http.StatusTooManyRequests:
			lastErr = fmt.Errorf("HTTP %d: %s", status, truncate(data))
			serverWait = ParseRetryAfter(header.Get("Retry-After"))
			continue
		case status != http.StatusOK:
			var eb shardErrorBody
			if json.Unmarshal(data, &eb) == nil && eb.Error.Message != "" {
				return nil, fmt.Errorf("serving: shard %d %s: HTTP %d: %s", shard, path, status, eb.Error.Message)
			}
			return nil, fmt.Errorf("serving: shard %d %s: HTTP %d: %s", shard, path, status, truncate(data))
		}
		return data, nil
	}
	return nil, fmt.Errorf("serving: shard %d %s: retries exhausted: %w", shard, path, lastErr)
}

// backoff is the jittered exponential schedule for retry `attempt` (>= 1):
// RetryBase · 2^(attempt-1), stretched by the jitter fraction into
// [wait, 1.5·wait).
func (p *ProxyBackend) backoff(shard, replica, attempt int) time.Duration {
	wait := p.retryBase << (attempt - 1)
	j := p.jitter(shard, replica, attempt)
	if j < 0 || j >= 1 {
		j = 0
	}
	return wait + time.Duration(j*float64(wait)/2)
}

// ParseRetryAfter reads a delay-seconds Retry-After value — the only form
// this repository's servers emit (Gate, Admission). The proxy honours it on
// shard retries and the adsapi client on API retries. Unparseable or
// negative values, and values too large for a time.Duration, mean "no
// advice" (0).
func ParseRetryAfter(h string) time.Duration {
	secs, err := strconv.ParseInt(strings.TrimSpace(h), 10, 64)
	if err != nil || secs < 0 || secs > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// roundTrip performs one HTTP attempt under min(caller deadline, per-RPC
// timeout) — context.WithTimeout never extends an earlier parent deadline —
// and forwards the remaining budget to the shard as the DeadlineHeader.
func (p *ProxyBackend) roundTrip(ctx context.Context, method, url string, body []byte) ([]byte, int, http.Header, error) {
	rctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, url, rdr)
	if err != nil {
		return nil, 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if d, ok := rctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, 0, nil, err
	}
	return data, resp.StatusCode, resp.Header, nil
}

func truncate(b []byte) string {
	const max = 200
	s := string(b)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
