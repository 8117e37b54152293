// Process-replicated serving: the network topology behind `fbadsd
// -shard-listen` / `-proxy`. A ShardServer exposes one whole world's reach
// primitives over a small HTTP RPC with binary share bodies; a ProxyBackend
// implements ReachBackend over a flat list of such replica processes by
// sending each estimate to one replica in rotation, with per-RPC timeouts,
// bounded jittered retry, hedged requests, health-checked failover
// (health.go) and per-replica circuit breakers (breaker.go).
//
// # Replication and hedging
//
// Every replica serves the byte-identical world: its model is a pure
// function of worldcfg.Config, and the health probes verify each replica's
// identity (catalog size, total population, world digest) against the
// proxy's own config, so routing between replicas never changes an answer. An estimate starts at the live replica whose turn it
// is; on failure it fails over to the next live replica in rotation order,
// and with HedgeAfter armed it also fires the SAME request at the next live
// replica once the hedge delay elapses without an answer — first success
// wins and the losers' contexts are canceled (their breakers see
// OnCanceled, not OnFailure). Only when no replica answers does the estimate
// fail, with *UnavailableError.
//
// # Deadline propagation
//
// Every proxy query threads the caller's context end to end: retry backoff
// sleeps select on it, each RPC attempt runs under min(caller deadline,
// per-RPC timeout), and the remaining budget crosses the wire — in an
// X-Deadline-Ms header, or in a reach frame's header — so a ShardServer
// abandons work whose caller has already given up (responding 504, which
// the proxy treats as permanent). An attempt whose context ends closes its
// framed connection.
//
// # Exactness
//
// A replica is the whole world, built from worldcfg.Config as
// NewLocalBackendFromConfig builds it (NewReplicaBackend), so its shares are
// LocalBackend's bit for bit. The one data RPC, reachshares, answers both
// factors of an estimate with the two engine calls LocalBackend.ReachShares
// makes, and carries each float64's IEEE-754 bits (see "Share bodies"), so
// the wire adds no error either. The proxy therefore returns the answering
// replica's pair unchanged, and every answer it serves — healthy, after
// failover, or from a hedge — is byte-identical to LocalBackend's:
// property-gated in remote_test.go over replicas {1,2,3} × seeds {0,1,42},
// hedging armed.
//
// # Share bodies
//
// The reachshares RPC carries binary bodies, so neither side runs
// reflection on the hot path. A request is a filter flag byte (0 none,
// 1 present); the filter in its self-delimiting key encoding
// (population.DemoFilter.AppendKey: length-prefixed countries, one byte per
// gender, varint ages); and the clauses as a uvarint count of
// uvarint-counted uvarint ID lists. A 200 answer is the IEEE-754 bits of
// the demo and union shares, 8 bytes little-endian each; the proxy refuses
// any other length as a bad response. A body from a build whose encoding
// differs (old JSON bodies, or a trailing conjunction ID list) is a 400 on
// either side, never a number. Error bodies stay JSON, as do health, stats
// and warmrows.
//
// # Connections
//
// Every RPC and health probe of the default proxy client rides one
// keep-alive transport (NewShardTransport) whose idle pool per replica host
// covers the proxy's peak concurrent RPCs. A reach RPC over HTTP offers an
// upgrade (Upgrade: reachProtocol); a ShardServer that can hijack the
// connection answers 101 and the RPC's answer as the first frame, and the
// proxy pools the connection, so later estimates are length-prefixed
// frames that skip net/http at both ends. A request frame is the budget in
// ms, the share body's length and the body; an answer frame is a 2-byte
// status, Retry-After in seconds, the payload's length and the payload
// (share bits on 200, the JSON error body otherwise) — numbers as uvarints.
// A malformed frame closes the connection. A shard that cannot hijack (a
// ResponseWriter wrapper without Hijack, an older build) answers over HTTP.
package serving

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"slices"
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
	shardPathReach  = "/shard/v1/reachshares"
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
		IdleConnTimeout:     shardIdleConnTimeout,
	}
}

// ShardHealthInfo is the health endpoint's payload: enough identity for the
// proxy to verify the replica serves its world before asking it (ProbeNow
// rejects mismatches as down).
type ShardHealthInfo struct {
	Status string `json:"status"`
	// TotalPopulation is the world's user base.
	TotalPopulation int64  `json:"total_population"`
	CatalogSize     int    `json:"catalog_size"`
	World           string `json:"world"` // worldDigest of the replica's config
}

// shardShareRequest is a reachshares request. Its wire form is binary (see
// "Share bodies").
type shardShareRequest struct {
	Filter  *population.DemoFilter
	Clauses [][]interest.ID
}

// maxShareBody bounds a share request body; the shard refuses a longer one.
const maxShareBody = 1 << 20

// encode returns the request's binary body.
func (req shardShareRequest) encode() []byte {
	// 256 bytes holds a paper-sized query (a country list and ~25
	// interests) without regrowing.
	b := make([]byte, 1, 256)
	if req.Filter != nil {
		b[0] = 1
		b = req.Filter.AppendKey(b)
	}
	b = binary.AppendUvarint(b, uint64(len(req.Clauses)))
	for _, c := range req.Clauses {
		b = binary.AppendUvarint(b, uint64(len(c)))
		for _, id := range c {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	return b
}

// decodeShareBody inverts encode. It rejects a bad filter flag, a truncated
// body, trailing bytes, an ID above MaxUint32, and any count larger than the
// bytes left (every element takes at least one byte), so no count can drive
// a huge allocation. An empty clause list decodes to nil.
func decodeShareBody(body []byte) (shardShareRequest, error) {
	var req shardShareRequest
	if len(body) == 0 {
		return req, errors.New("empty body")
	}
	switch body[0] {
	case 0:
		body = body[1:]
	case 1:
		f, rest, err := population.DecodeDemoFilterKey(body[1:])
		if err != nil {
			return req, err
		}
		req.Filter, body = &f, rest
	default:
		return req, fmt.Errorf("bad filter flag %d", body[0])
	}
	// Every ID the body names fits one backing array sized by the bytes
	// left; the clauses are windows onto it.
	d := idReader{b: body, ids: make([]interest.ID, 0, len(body))}
	if n := d.count(); n > 0 {
		req.Clauses = make([][]interest.ID, n)
		for i := range req.Clauses {
			req.Clauses[i] = d.list()
		}
	}
	switch {
	case d.err != nil:
		return shardShareRequest{}, d.err
	case len(d.b) > 0:
		return shardShareRequest{}, fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return req, nil
}

// idReader reads a share body's uvarint counts and ID lists, keeping the
// first error.
type idReader struct {
	b   []byte
	ids []interest.ID // backing for every list read
	err error
}

func (d *idReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	switch v, n := binary.Uvarint(d.b); {
	case n == 0:
		d.err = errors.New("truncated body")
	case n < 0:
		d.err = errors.New("varint overflows 64 bits")
	default:
		d.b = d.b[n:]
		return v
	}
	return 0
}

func (d *idReader) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// list reads one counted ID list as a window onto d.ids.
func (d *idReader) list() []interest.ID {
	n := d.count()
	start := len(d.ids)
	for k := 0; k < n && d.err == nil; k++ {
		if id := d.uvarint(); id > math.MaxUint32 {
			d.err = fmt.Errorf("interest id %d above MaxUint32", id)
		} else {
			d.ids = append(d.ids, interest.ID(id))
		}
	}
	return d.ids[start:len(d.ids):len(d.ids)]
}

// decodeShares reads a share RPC's 200 body into out: exactly len(out)
// little-endian IEEE-754 float64s. Any other length is an error, never a
// number.
func decodeShares(data []byte, out ...*float64) error {
	if len(data) != 8*len(out) {
		return fmt.Errorf("serving: bad share response: %d bytes, want %d", len(data), 8*len(out))
	}
	for i, p := range out {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return nil
}

type shardErrorBody struct {
	Error struct {
		Message string `json:"message"`
	} `json:"error"`
}

// ShardInfo identifies the world a replica serves.
type ShardInfo struct {
	// TotalPopulation is the world's user base.
	TotalPopulation int64
	// World is the worldDigest of the replica's config.
	World string
}

// worldDigest fingerprints every configuration field that changes a
// shard's answers: the seed, catalog size, population, activity spread and
// grid, and cache mode. Capacity, Disabled and Parallelism change no answer
// and are left out. The health probe refuses a replica whose digest is not
// the proxy's, so two replicas that pass serve the same world.
func worldDigest(cfg worldcfg.Config) string {
	pp := cfg.Population
	h := fnv.New64a()
	fmt.Fprintln(h, pp.Seed, pp.CatalogSize, pp.Population, math.Float64bits(pp.ActivitySigma), pp.ActivityGrid, uint8(cfg.Cache.Mode))
	return strconv.FormatUint(h.Sum64(), 16)
}

// NewReplicaBackend builds a replica's world from cfg — the whole world, as
// NewLocalBackendFromConfig builds it, so failover between replicas is exact
// — and the identity its health answer reports. fbadsd -shard-listen serves
// it.
func NewReplicaBackend(cfg worldcfg.Config) (*LocalBackend, ShardInfo, error) {
	b, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		return nil, ShardInfo{}, err
	}
	return b, ShardInfo{TotalPopulation: cfg.Population.Population, World: worldDigest(cfg)}, nil
}

// NewShardBackend checks that index lies in [0, count) and returns
// NewReplicaBackend(cfg): every replica is the whole world.
//
// Deprecated: use NewReplicaBackend. perfbench, which builds its replicas as
// NewShardBackend(cfg, i, n), is the only caller.
func NewShardBackend(cfg worldcfg.Config, index, count int) (*LocalBackend, ShardInfo, error) {
	if index < 0 || index >= count {
		return nil, ShardInfo{}, fmt.Errorf("serving: shard index %d outside [0, %d)", index, count)
	}
	return NewReplicaBackend(cfg)
}

// ShardServer serves one replica's reach primitives over the shard RPC
// (binary share bodies, JSON everywhere else; see "Share bodies"). It is an
// http.Handler; fbadsd mounts it on -shard-listen. The RPC surface trusts
// its caller (the proxy validates specs upstream) but still rejects
// malformed or oversized bodies and unknown interest IDs with 400s so a
// stray request cannot crash the replica.
type ShardServer struct {
	backend *LocalBackend
	info    ShardInfo
	mux     *http.ServeMux
}

// NewShardServer wraps a replica backend (NewReplicaBackend) as its RPC
// handler.
func NewShardServer(b *LocalBackend, info ShardInfo) (*ShardServer, error) {
	if b == nil {
		return nil, errors.New("serving: ShardServer needs a backend")
	}
	s := &ShardServer{backend: b, info: info}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+shardPathHealth, s.handleHealth)
	mux.HandleFunc("POST "+shardPathReach, s.handleShare)
	mux.HandleFunc("GET "+shardPathStats, s.handleStats)
	mux.HandleFunc("POST "+shardPathWarm, s.handleWarmRows)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler. A DeadlineHeader on the request scopes
// its context to the forwarded budget, so the share handlers can abandon
// work whose caller has stopped waiting (answering 504, see
// deadlineMessage).
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

// deadlineMessage is the 504 body's message for an RPC whose context is
// already dead when its handler reaches the compute step: the caller
// stopped waiting (forwarded deadline expired or connection dropped), so
// computing is pure waste. The proxy treats the 504 as a permanent RPC
// failure (no retry).
func deadlineMessage(err error) string { return "deadline exhausted before compute: " + err.Error() }

// Backend exposes the shard's LocalBackend (test and wiring use).
func (s *ShardServer) Backend() *LocalBackend { return s.backend }

func (s *ShardServer) writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

// appendShares appends each share's IEEE-754 bits, 8 bytes little-endian
// per share: a share RPC's 200 answer.
func appendShares(b []byte, shares ...float64) []byte {
	for _, v := range shares {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// errorBody is a non-200 answer's JSON body.
func errorBody(msg string) []byte {
	var body shardErrorBody
	body.Error.Message = msg
	buf, _ := json.Marshal(body)
	return buf
}

// writeAnswer answers over HTTP: share bits on 200, else an error body.
func writeAnswer(w http.ResponseWriter, status int, payload []byte) {
	ct := "application/json"
	if status == http.StatusOK {
		ct = "application/octet-stream"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(status)
	w.Write(payload)
}

func (s *ShardServer) writeError(w http.ResponseWriter, status int, msg string) {
	writeAnswer(w, status, errorBody(msg))
}

// parseShareBody validates a share-request body: exactly one binary request
// (decodeShareBody) with nothing after it, and every interest ID present in
// the shard's catalog. Its error is the 400's message.
func (s *ShardServer) parseShareBody(body []byte) (shardShareRequest, error) {
	req, err := decodeShareBody(body)
	if err != nil {
		return req, fmt.Errorf("malformed request body: %w", err)
	}
	cat := s.backend.Catalog()
	for _, clause := range req.Clauses {
		for _, id := range clause {
			if _, err := cat.Get(id); err != nil {
				return req, fmt.Errorf("unknown interest %d", id)
			}
		}
	}
	return req, nil
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, ShardHealthInfo{
		Status:          "ok",
		TotalPopulation: s.info.TotalPopulation,
		CatalogSize:     s.backend.Catalog().Len(),
		World:           s.info.World,
	})
}

// shareAnswer answers one reachshares body, whichever envelope carried it:
// 200 with the demo and union shares' bits (LocalBackend.ReachShares), 400
// for a body parseShareBody refuses, or 504 when ctx ended before compute.
func (s *ShardServer) shareAnswer(ctx context.Context, body []byte) (int, []byte) {
	req, err := s.parseShareBody(body)
	if err != nil {
		return http.StatusBadRequest, errorBody(err.Error())
	}
	if err := ctx.Err(); err != nil {
		return http.StatusGatewayTimeout, errorBody(deadlineMessage(err))
	}
	var f population.DemoFilter
	if req.Filter != nil {
		f = *req.Filter
	}
	demo, union, _ := s.backend.ReachShares(ctx, f, req.Clauses) // a LocalBackend never fails
	return http.StatusOK, appendShares(make([]byte, 0, 16), demo, union)
}

// handleShare serves the reach RPC over HTTP, reading at most maxShareBody
// bytes. A request offering the frame upgrade gets its answer as the first
// frame when the connection can be hijacked.
func (s *ShardServer) handleShare(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShareBody))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	status, payload := s.shareAnswer(r.Context(), body)
	if r.Header.Get("Upgrade") == reachProtocol && s.upgrade(w, r, status, payload) {
		return
	}
	writeAnswer(w, status, payload)
}

func (s *ShardServer) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.backend.AudienceStats(r.Context()))
}

func (s *ShardServer) handleWarmRows(w http.ResponseWriter, r *http.Request) {
	if err := r.Context().Err(); err != nil {
		s.writeError(w, http.StatusGatewayTimeout, deadlineMessage(err))
		return
	}
	s.backend.WarmRows(r.Context())
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// ProxyConfig configures a ProxyBackend.
type ProxyConfig struct {
	// URLs are the replica base URLs. Every replica must serve the proxy's
	// world (ProbeNow verifies each one against the proxy's config and marks
	// a mismatch down); estimates rotate over them in this order.
	URLs []string
	// Timeout bounds each replica RPC attempt (default 10s).
	Timeout time.Duration
	// MaxRetries bounds per-RPC retries after the first attempt, on network
	// errors, 5xx and 429 (default 2).
	MaxRetries int
	// RetryBase is the initial retry backoff, doubled per retry and
	// stretched by Jitter (default 50ms).
	RetryBase time.Duration
	// RetryBudget caps the TOTAL retries one query may spend across every
	// replica it tries, so a brownout cannot amplify incoming load by
	// replicas × MaxRetries. Exhaustion fails the RPC that wanted the retry
	// (tallied as HealthStats.RetryBudgetExhausted) and counts as that
	// replica's failure. 0 defaults to 2 × MaxRetries; negative disables the
	// cap.
	RetryBudget int
	// HedgeAfter arms hedged requests: an RPC still unanswered after this
	// delay is duplicated to the next live replica, first success wins,
	// losers are canceled. Zero (the default) disables hedging; replicas
	// then give sequential failover only. The hedge timer sleeps through
	// Sleep, so tests drive it deterministically.
	HedgeAfter time.Duration
	// Jitter supplies the backoff jitter fraction in [0, 1) for a given
	// (replica, attempt); the retry wait is stretched to
	// wait · (1 + jitter/2), i.e. [wait, 1.5·wait), so concurrent queries
	// retrying against the same recovering replica decorrelate instead of
	// arriving in synchronized bursts. Nil uses a deterministic source
	// derived from the world seed; tests inject a constant.
	Jitter func(replica, attempt int) float64
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
	// contexts carry the timeouts). A reach RPC uses it until its connection
	// upgrades to frames, which bypass it; a transport that disables
	// keep-alives is offered no upgrade.
	Client *http.Client
	// Now supplies time for health bookkeeping; defaults to time.Now.
	Now func() time.Time
	// Sleep is the retry-backoff and hedge-delay sleep, swappable for
	// tests; defaults to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// ProxyBackend implements ReachBackend over replica PROCESSES, each serving
// the whole world. Every reach estimate is ONE reachshares RPC to the
// replica whose turn it is (per-RPC timeout, bounded jittered retry under a
// per-query budget), and the answer is that replica's, unchanged —
// byte-identical to LocalBackend (see the package comment's exactness
// argument).
//
// Each replica carries its own health state (health.go) and circuit
// breaker. Replicas marked down by probes are skipped, RPC failures mark
// replicas down, and an RPC that fails moves to the next live replica —
// and, when HedgeAfter is armed, a hedged duplicate races it there. Only an
// estimate no replica answers returns *UnavailableError (HTTP 503).
type ProxyBackend struct {
	catalog *interest.Catalog
	pop     int64
	world   string // worldDigest of the proxy's config
	urls    []string
	turn    rotation

	timeout       time.Duration
	maxRetries    int
	retryBase     time.Duration
	retryBudget   int // per-query retry cap; <= 0 means uncapped
	hedgeAfter    time.Duration
	jitter        func(replica, attempt int) float64
	probeInterval time.Duration
	probeTimeout  time.Duration
	client        *http.Client
	sleep         func(ctx context.Context, d time.Duration) error

	health   *healthMonitor
	breakers []*breaker
	frames   []framePool    // each replica's idle upgraded connections
	rpcs     []atomic.Int64 // data-RPC attempts per replica

	hedged          atomic.Int64
	hedgeWins       atomic.Int64
	failovers       atomic.Int64
	budgetExhausted atomic.Int64
}

// NewProxyBackend builds the proxy's local view of the world described by
// cfg: the interest catalog is generated locally (bit-identical to every
// replica's — catalog generation is a pure function of the config). No
// replica is contacted during construction; replicas start optimistically
// up and the first probe or RPC corrects that.
func NewProxyBackend(cfg worldcfg.Config, pc ProxyConfig) (*ProxyBackend, error) {
	n := len(pc.URLs)
	if n < 1 {
		return nil, errors.New("serving: ProxyConfig needs at least one replica URL")
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
	urls := make([]string, n)
	for i, u := range pc.URLs {
		if urls[i] = strings.TrimSuffix(strings.TrimSpace(u), "/"); urls[i] == "" {
			return nil, fmt.Errorf("serving: replica %d has an empty URL", i)
		}
	}
	if pc.Breaker.Now == nil {
		pc.Breaker.Now = pc.Now
	}
	// Without keep-alives, replicas get nil frame pools, which offer no upgrade.
	t, ok := pc.Client.Transport.(*http.Transport)
	keepAlive := !ok || !t.DisableKeepAlives
	breakers := make([]*breaker, n)
	frames := make([]framePool, n)
	for i := range breakers {
		breakers[i] = newBreaker(pc.Breaker)
		if keepAlive {
			frames[i] = make(framePool, shardIdleConnsPerHost)
		}
	}
	return &ProxyBackend{
		catalog:       cat,
		pop:           cfg.Population.Population,
		world:         worldDigest(cfg),
		urls:          urls,
		timeout:       pc.Timeout,
		maxRetries:    pc.MaxRetries,
		retryBase:     pc.RetryBase,
		retryBudget:   pc.RetryBudget,
		hedgeAfter:    pc.HedgeAfter,
		jitter:        pc.Jitter,
		probeInterval: pc.ProbeInterval,
		probeTimeout:  pc.ProbeTimeout,
		client:        pc.Client,
		sleep:         pc.Sleep,
		health:        newHealthMonitor(urls, pc.Now),
		breakers:      breakers,
		frames:        frames,
		rpcs:          make([]atomic.Int64, n),
	}, nil
}

// defaultJitter derives a deterministic jitter stream from the world seed:
// draw k for (replica, attempt) comes from the derived stream
// "<replica>/<attempt>/<k>" of a jitter-dedicated parent. The parent Rand is
// only ever READ (Derive hashes its state without advancing it), so
// concurrent retries may draw without a lock.
func defaultJitter(seed uint64) func(replica, attempt int) float64 {
	parent := rng.New(seed).Derive("proxy-backoff-jitter")
	var seq atomic.Uint64
	return func(replica, attempt int) float64 {
		k := seq.Add(1)
		return parent.Derive(fmt.Sprintf("%d/%d/%d", replica, attempt, k)).Float64()
	}
}

// Catalog implements ReachBackend: the proxy's locally generated catalog,
// bit-identical to every replica's.
func (p *ProxyBackend) Catalog() *interest.Catalog { return p.catalog }

// Population implements ReachBackend.
func (p *ProxyBackend) Population() int64 { return p.pop }

// ReachShares implements ReachBackend with one reachshares RPC to one
// replica (ask): the answering replica's pair is the estimate, unchanged. It returns
// *UnavailableError when no replica answers, and *CanceledError when the
// caller's context ends first.
func (p *ProxyBackend) ReachShares(ctx context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64, err error) {
	data, err := p.ask(ctx, shardPathReach, shardShareRequest{Filter: &f, Clauses: clauses}.encode())
	if err == nil {
		err = decodeShares(data, &demo, &union)
	}
	return demo, union, err
}

// must adapts ReachShares to the float64 share methods (DemoShare,
// UnionShare and ConditionalAudience). They sit outside ReachBackend and no
// program path calls them, so no program path reaches this panic: the reach
// path returns its errors.
func must(v float64, err error) float64 {
	if err != nil {
		panic(err)
	}
	return v
}

// DemoShare returns the population share matching a demographic filter: the
// demo factor of one ReachShares call.
//
// Deprecated: use ReachShares. perfbench's traced backend is the only
// caller.
func (p *ProxyBackend) DemoShare(ctx context.Context, f population.DemoFilter) float64 {
	demo, _, err := p.ReachShares(ctx, f, nil)
	return must(demo, err)
}

// UnionShare returns the population share matching a flexible-spec union of
// interest conjunctions: the union factor of one ReachShares call.
//
// Deprecated: use ReachShares. perfbench's traced backend is the only
// caller.
func (p *ProxyBackend) UnionShare(ctx context.Context, clauses [][]interest.ID) float64 {
	_, union, err := p.ReachShares(ctx, population.DemoFilter{}, clauses)
	return must(union, err)
}

// ConditionalAudience returns the §4.1 conditional audience of a conjunction
// inside a demographic slice: one ReachShares call with the conjunction as
// single-interest clauses (whose union share is the conjunction's share),
// composed with the global population by population.ConditionalAudience.
//
// Deprecated: use ReachShares. perfbench's traced backend is the only
// caller.
func (p *ProxyBackend) ConditionalAudience(ctx context.Context, f population.DemoFilter, ids []interest.ID) float64 {
	clauses := make([][]interest.ID, len(ids))
	for i := range ids {
		clauses[i] = ids[i : i+1 : i+1]
	}
	demo, conj, err := p.ReachShares(ctx, f, clauses)
	return population.ConditionalAudience(p.pop, must(demo, err), conj)
}

// AudienceStats implements ReachBackend: the fold of every live replica's
// cache counters. Stats are diagnostics: an unreachable replica, or every
// replica once ctx ends, contributes zeros rather than failing the call.
func (p *ProxyBackend) AudienceStats(ctx context.Context) audience.Stats {
	live := p.health.liveFrom(0)
	stats := make([]audience.Stats, len(live))
	bud := p.newQueryBudget()
	_ = parallel.ForEach(ctx, len(live), len(live), func(k int) error {
		if data, err := p.callReplica(ctx, live[k], http.MethodGet, shardPathStats, nil, bud); err == nil {
			var st audience.Stats
			if json.Unmarshal(data, &st) == nil {
				stats[k] = st
			}
		}
		return nil
	})
	var total audience.Stats
	for _, st := range stats {
		total = addStats(total, st)
	}
	return total
}

// WarmRows implements ReachBackend: best-effort — every reachable replica
// materializes its full inclusion-row table, down-marked ones included, so
// a failover or hedge lands on warm rows too.
func (p *ProxyBackend) WarmRows(ctx context.Context) {
	_ = parallel.ForEach(ctx, len(p.urls), len(p.urls), func(r int) error {
		_, _ = p.callReplica(ctx, r, http.MethodPost, shardPathWarm, nil, nil)
		return nil
	})
}

// rotation hands out the replica that answers the next estimate: 0, 1, …,
// n-1, 0, … in call order, safe for concurrent use. Every replica's shares
// are the single world's bit for bit, so which one answers never changes an
// answer; rotating only spreads the work.
type rotation struct{ next atomic.Uint64 }

func (r *rotation) pick(n int) int { return int((r.next.Add(1) - 1) % uint64(n)) }

// ask sends one share RPC body to the live replicas, in rotation order from
// the one whose turn it is, and returns the first answer's body
// (callReplicas: failover and hedging under one retry budget). Every
// replica answers exactly, so whichever answers gives the same bytes.
// *UnavailableError names every replica when none answers. The caller's ctx
// threads into every RPC; if it ends first, ask returns *CanceledError, and
// the failures it caused are not held against the replicas.
func (p *ProxyBackend) ask(ctx context.Context, path string, body []byte) ([]byte, error) {
	if live := p.health.liveFrom(p.turn.pick(len(p.urls))); len(live) > 0 {
		data, err := p.callReplicas(ctx, live, http.MethodPost, path, body, p.newQueryBudget())
		if err == nil {
			return data, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Err: err}
	}
	return nil, &UnavailableError{Down: slices.Clone(p.urls)}
}

// queryBudget is one query's shared retry allowance across every replica it
// tries; a nil budget is uncapped.
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

// callReplicas is the replica loop over candidates, replica indices in the
// order to try them. The first starts immediately; the next candidate takes over with the
// identical request whenever a running attempt fails (counted as a failover,
// or as a hedge when hedging is armed) — and, with HedgeAfter armed and more
// than one candidate, also whenever the hedge delay elapses without an
// answer (a hedge). Hedged attempts race: the first success wins and cancels
// the rest (their breakers observe OnCanceled, a neutral verdict). Replicas
// being byte-identical worlds — every candidate passed the same identity
// probe — is what makes failover exact and "first success wins" sound: the
// bytes cannot depend on the winner. All attempts debit the same shared
// retry budget, so hedging cannot multiply a brownout's retry load.
func (p *ProxyBackend) callReplicas(ctx context.Context, candidates []int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
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
			data, err := p.callReplica(raceCtx, rep, method, path, body, bud)
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
	// The hedge timer re-arms after every fire, so with 3+ candidates it
	// keeps escalating while nobody answers. Disarmed, it is a nil
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
	return nil, fmt.Errorf("serving: %s: every live replica failed: %w", path, lastErr)
}

// callReplica performs one replica RPC under the replica's circuit breaker.
// The whole retrying call is one breaker unit: an open breaker fails it in
// microseconds with *ErrBreakerOpen (no network); otherwise its final
// outcome feeds OnSuccess/OnFailure — unless the passed ctx ended (caller
// gone, or this attempt lost a hedge race), which says nothing about the
// replica and registers as the neutral OnCanceled. A genuine failure also
// marks the replica down in the health monitor; only a probe resurrects it.
func (p *ProxyBackend) callReplica(ctx context.Context, replica int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	br := p.breakers[replica]
	if err := br.Allow(); err != nil {
		return nil, err
	}
	data, err := p.callRetrying(ctx, replica, method, path, body, bud)
	switch {
	case err == nil:
		br.OnSuccess()
	case ctx.Err() != nil:
		br.OnCanceled()
	default:
		br.OnFailure()
		p.health.markDown(replica, err)
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
// waste. 504 is permanent — the replica abandoned the request because the
// forwarded deadline expired — as are other 4xx.
//
// When ctx ends mid-loop (a lost hedge race, or the caller leaving), the
// call returns the context's error and callReplica keeps the breaker
// neutral. But if the last attempt could not reach the replica at all
// (refused, reset, timed out), that failure is already proof the replica is gone, so
// it still marks the replica down: a race loser must not discard it.
func (p *ProxyBackend) callRetrying(ctx context.Context, replica int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	var lastErr error
	var serverWait time.Duration // Retry-After from the last failed attempt
	var unreachable error        // the last attempt's transport failure, if it had one
	abandon := func(err error) ([]byte, error) {
		if unreachable != nil {
			p.health.markDown(replica, unreachable)
		}
		return nil, err
	}
	for attempt := 0; attempt <= p.maxRetries; attempt++ {
		if attempt > 0 {
			if !bud.take() {
				p.budgetExhausted.Add(1)
				return nil, fmt.Errorf("serving: replica %d %s: query retry budget exhausted: %w", replica, path, lastErr)
			}
			wait := p.backoff(replica, attempt)
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
		data, status, retryAfter, err := p.attempt(ctx, replica, method, path, body)
		if err != nil {
			if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
				lastErr, unreachable, serverWait = err, err, 0
			}
			if ctx.Err() != nil {
				// The caller is gone: retrying can only waste replica work. A
				// failure that came before the cancel still counts above.
				return abandon(err)
			}
			continue
		}
		unreachable = nil
		switch {
		case status == http.StatusGatewayTimeout:
			// The replica honored the forwarded deadline and gave up.
			return nil, fmt.Errorf("serving: replica %d %s: HTTP %d: deadline exhausted: %s",
				replica, path, status, truncate(data))
		case status >= 500 || status == http.StatusTooManyRequests:
			lastErr = fmt.Errorf("HTTP %d: %s", status, truncate(data))
			serverWait = retryAfter
			continue
		case status != http.StatusOK:
			var eb shardErrorBody
			if json.Unmarshal(data, &eb) == nil && eb.Error.Message != "" {
				return nil, fmt.Errorf("serving: replica %d %s: HTTP %d: %s", replica, path, status, eb.Error.Message)
			}
			return nil, fmt.Errorf("serving: replica %d %s: HTTP %d: %s", replica, path, status, truncate(data))
		}
		return data, nil
	}
	return nil, fmt.Errorf("serving: replica %d %s: retries exhausted: %w", replica, path, lastErr)
}

// backoff is the jittered exponential schedule for retry `attempt` (>= 1):
// RetryBase · 2^(attempt-1), stretched by the jitter fraction into
// [wait, 1.5·wait).
func (p *ProxyBackend) backoff(replica, attempt int) time.Duration {
	wait := p.retryBase << (attempt - 1)
	j := p.jitter(replica, attempt)
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

// attempt performs one RPC attempt under min(caller deadline, per-RPC
// timeout) — context.WithTimeout never extends an earlier parent deadline —
// and forwards the remaining budget. A reach RPC goes as a frame on a
// pooled upgraded connection when the replica has one, and otherwise as an
// HTTP round trip offering the upgrade. It returns the answer's body,
// status and Retry-After.
func (p *ProxyBackend) attempt(ctx context.Context, replica int, method, path string, body []byte) ([]byte, int, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	d, _ := ctx.Deadline()
	budget := max(time.Until(d).Milliseconds(), 1)
	p.rpcs[replica].Add(1)
	var pool framePool
	if path == shardPathReach {
		pool = p.frames[replica]
		if c := pool.get(); c != nil {
			c.frame = appendRequestFrame(c.frame[:0], budget, body)
			data, status, retryAfter, err := c.exchange(ctx, pool, c.frame)
			if !errors.Is(err, errStaleConn) {
				return data, status, retryAfter, err
			}
			// The shard closed the idle connection, so the RPC never reached
			// it: re-send it once on a fresh connection, as net/http re-sends
			// an idempotent request. This attempt debits no retry for it.
		}
	}
	return p.roundTrip(ctx, method, p.urls[replica]+path, body, budget, pool)
}

// roundTrip performs one HTTP RPC under ctx, forwarding budget (ms) as the
// DeadlineHeader. With a pool it offers the reach-frame upgrade: a shard
// answering 101 sends the answer as the first frame, and the connection
// joins the pool.
func (p *ProxyBackend) roundTrip(ctx context.Context, method, url string, body []byte, budget int64, pool framePool) ([]byte, int, time.Duration, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rdr)
	if err != nil {
		return nil, 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	req.Header.Set(DeadlineHeader, strconv.FormatInt(budget, 10))
	if pool != nil {
		req.Header.Set("Connection", "Upgrade")
		req.Header.Set("Upgrade", reachProtocol)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode == http.StatusSwitchingProtocols {
		rwc, ok := resp.Body.(io.ReadWriteCloser)
		if !ok || pool == nil || resp.Header.Get("Upgrade") != reachProtocol {
			resp.Body.Close()
			return nil, 0, 0, fmt.Errorf("serving: unexpected upgrade to %q", resp.Header.Get("Upgrade"))
		}
		return (&frameConn{rwc: rwc, br: bufio.NewReader(rwc)}).exchange(ctx, pool, nil)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBody))
	resp.Body.Close()
	if err != nil {
		return nil, 0, 0, err
	}
	var retryAfter time.Duration
	if h := resp.Header.Get("Retry-After"); h != "" {
		retryAfter = ParseRetryAfter(h)
	}
	return data, resp.StatusCode, retryAfter, nil
}

func truncate(b []byte) string {
	const max = 200
	s := string(b)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
