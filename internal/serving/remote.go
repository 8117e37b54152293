// Process-replicated serving: the network topology behind `fbadsd
// -shard-listen` / `-proxy`. A ShardServer exposes one whole world's reach
// primitives over a small HTTP RPC with binary share bodies; a ProxyBackend
// implements ReachBackend over a flat list of such replica processes by
// sending each estimate to one replica in rotation, with per-RPC timeouts,
// hedged requests and health-checked failover (health.go). Each replica gets
// one attempt per estimate: the next live replica, the same world bit for
// bit, is the only retry.
//
// # Replication and hedging
//
// Every replica serves the byte-identical world: its model is a pure
// function of worldcfg.Config, and the health probes verify each replica's
// identity (catalog size, total population, world digest) against the
// proxy's own config, so routing between replicas never changes an answer.
// An estimate starts at the live replica whose turn it is; on failure it
// fails over to the next live replica in rotation order, and with
// HedgeAfter armed it also fires the SAME request at the next live replica
// once the hedge delay elapses without an answer — first success wins and
// the losers' contexts are canceled, which marks no replica down. Only when
// no replica answers does the estimate fail, with *UnavailableError.
//
// # Deadline propagation
//
// Every proxy query threads the caller's context end to end: the hedge delay
// selects on it, each RPC runs under min(caller deadline, per-RPC timeout),
// and the remaining budget crosses the wire — in an X-Deadline-Ms header, or
// in a reach frame's header — so a ShardServer abandons work whose caller
// has already given up (responding 504, which counts as that replica's
// failure). An RPC whose context ends closes its framed connection.
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
// status, the payload's length and the payload (share bits on 200, the JSON
// error body otherwise) — numbers as uvarints.
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
// computing is pure waste. The proxy counts the 504 as the replica's
// failure.
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
			if !cat.Has(id) {
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
	// Timeout bounds each replica RPC (default 10s).
	Timeout time.Duration
	// HedgeAfter arms hedged requests: an RPC still unanswered after this
	// delay is duplicated to the next live replica, first success wins,
	// losers are canceled. Zero (the default) disables hedging; replicas
	// then give sequential failover only. The hedge timer sleeps through
	// Sleep, so tests drive it deterministically.
	HedgeAfter time.Duration
	// ProbeInterval is StartHealth's probe period (default 1s).
	ProbeInterval time.Duration
	// Client overrides the HTTP client — tests inject flaky transports
	// through it. Nil uses a client over NewShardTransport (per-request
	// contexts carry the timeouts). A reach RPC uses it until its connection
	// upgrades to frames, which bypass it; a transport that disables
	// keep-alives is offered no upgrade.
	Client *http.Client
	// Now supplies time for health bookkeeping; defaults to time.Now.
	Now func() time.Time
	// Sleep is the hedge-delay sleep, swappable for tests; defaults to a
	// context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// ProxyBackend implements ReachBackend over replica PROCESSES, each serving
// the whole world. Every reach estimate is ONE reachshares RPC to the
// replica whose turn it is (per-RPC timeout, no same-replica retry), and the
// answer is that replica's, unchanged — byte-identical to LocalBackend (see
// the package comment's exactness argument).
//
// Each replica carries one up/down state (health.go). Replicas marked down
// are skipped, RPC failures mark replicas down, only a probe that passes
// both the identity and the reach check brings one back, and an RPC that
// fails moves to the next live replica — and, when HedgeAfter is armed, a
// hedged duplicate races it there. Only an estimate no replica answers
// returns *UnavailableError (HTTP 503).
type ProxyBackend struct {
	catalog *interest.Catalog
	pop     int64
	world   string // worldDigest of the proxy's config
	urls    []string
	turn    rotation

	timeout       time.Duration
	hedgeAfter    time.Duration
	probeInterval time.Duration
	client        *http.Client
	sleep         func(ctx context.Context, d time.Duration) error

	health *healthMonitor
	frames []framePool    // each replica's idle upgraded connections
	rpcs   []atomic.Int64 // data-RPC attempts per replica

	hedged    atomic.Int64
	hedgeWins atomic.Int64
	failovers atomic.Int64
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
	if pc.HedgeAfter < 0 {
		return nil, fmt.Errorf("serving: negative HedgeAfter %v", pc.HedgeAfter)
	}
	if pc.ProbeInterval <= 0 {
		pc.ProbeInterval = time.Second
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
	// Without keep-alives, replicas get nil frame pools, which offer no upgrade.
	t, ok := pc.Client.Transport.(*http.Transport)
	frames := make([]framePool, n)
	if !ok || !t.DisableKeepAlives {
		for i := range frames {
			frames[i] = make(framePool, shardIdleConnsPerHost)
		}
	}
	return &ProxyBackend{
		catalog:       cat,
		pop:           cfg.Population.Population,
		world:         worldDigest(cfg),
		urls:          urls,
		timeout:       pc.Timeout,
		hedgeAfter:    pc.HedgeAfter,
		probeInterval: pc.ProbeInterval,
		client:        pc.Client,
		sleep:         pc.Sleep,
		health:        newHealthMonitor(urls, pc.Now),
		frames:        frames,
		rpcs:          make([]atomic.Int64, n),
	}, nil
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
	_ = parallel.ForEach(ctx, len(live), len(live), func(k int) error {
		if data, err := p.callReplica(ctx, live[k], http.MethodGet, shardPathStats, nil); err == nil {
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
		_, _ = p.callReplica(ctx, r, http.MethodPost, shardPathWarm, nil)
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
// (callReplicas: failover and hedging, one attempt per replica). Every
// replica answers exactly, so whichever answers gives the same bytes.
// *UnavailableError names every replica when none answers. The caller's ctx
// threads into every RPC; if it ends first, ask returns *CanceledError, and
// the failures it caused are not held against the replicas.
func (p *ProxyBackend) ask(ctx context.Context, path string, body []byte) ([]byte, error) {
	if live := p.health.liveFrom(p.turn.pick(len(p.urls))); len(live) > 0 {
		data, err := p.callReplicas(ctx, live, http.MethodPost, path, body)
		if err == nil {
			return data, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Err: err}
	}
	return nil, &UnavailableError{Down: slices.Clone(p.urls)}
}

// callReplicas is the replica loop over candidates, replica indices in the
// order to try them. The first starts immediately; the next candidate takes
// over with the identical request whenever a running attempt fails (counted
// as a failover, or as a hedge when hedging is armed) — and, with HedgeAfter
// armed and more than one candidate, also whenever the hedge delay elapses
// without an answer (a hedge). Hedged attempts race: the first success wins
// and cancels the rest, whose canceled calls mark no replica down. Replicas
// being byte-identical worlds — every candidate passed the same identity
// probe — is what makes failover exact and "first success wins" sound: the
// bytes cannot depend on the winner. Each candidate gets one attempt, so a
// query sends at most one RPC per replica, brownout or not.
func (p *ProxyBackend) callReplicas(ctx context.Context, candidates []int, method, path string, body []byte) ([]byte, error) {
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
			data, err := p.callReplica(raceCtx, rep, method, path, body)
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

// callReplica performs one replica RPC, counted in the replica's data-RPC
// tally, and maps its answer: the body on 200, an error otherwise. A 504
// means the replica honored the forwarded deadline and gave up. A genuine
// failure marks the replica down, and only a probe brings it back. A failure
// that is ctx's own error (the caller gone, or this RPC lost a hedge race)
// says nothing about the replica and marks nothing; one that ended before
// ctx did — a refusal a race loser saw first — still counts.
func (p *ProxyBackend) callReplica(ctx context.Context, replica int, method, path string, body []byte) ([]byte, error) {
	p.rpcs[replica].Add(1)
	data, status, err := p.attempt(ctx, replica, method, path, body)
	switch {
	case err != nil:
		err = fmt.Errorf("serving: replica %d %s: %w", replica, path, err)
	case status == http.StatusOK:
		return data, nil
	case status == http.StatusGatewayTimeout:
		err = fmt.Errorf("serving: replica %d %s: HTTP %d: deadline exhausted: %s", replica, path, status, truncate(data))
	default:
		msg := truncate(data)
		var eb shardErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error.Message != "" {
			msg = eb.Error.Message
		}
		err = fmt.Errorf("serving: replica %d %s: HTTP %d: %s", replica, path, status, msg)
	}
	if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
		p.health.markDown(replica, err)
	}
	return nil, err
}

// attempt performs one RPC attempt under min(caller deadline, per-RPC
// timeout) — context.WithTimeout never extends an earlier parent deadline —
// and forwards the remaining budget. A reach RPC goes as a frame on a
// pooled upgraded connection when the replica has one, and otherwise as an
// HTTP round trip offering the upgrade. It returns the answer's body and
// status, and counts nothing: the probe's reach check comes through here
// too, and is no data RPC.
func (p *ProxyBackend) attempt(ctx context.Context, replica int, method, path string, body []byte) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	d, _ := ctx.Deadline()
	budget := max(time.Until(d).Milliseconds(), 1)
	var pool framePool
	if path == shardPathReach {
		pool = p.frames[replica]
		if c := pool.get(); c != nil {
			c.frame = appendRequestFrame(c.frame[:0], budget, body)
			data, status, err := c.exchange(ctx, pool, c.frame)
			if !errors.Is(err, errStaleConn) {
				return data, status, err
			}
			// The shard closed the idle connection, so the RPC never reached
			// it: re-send it once on a fresh connection, as net/http re-sends
			// an idempotent request.
		}
	}
	return p.roundTrip(ctx, method, p.urls[replica]+path, body, budget, pool)
}

// roundTrip performs one HTTP RPC under ctx, forwarding budget (ms) as the
// DeadlineHeader. With a pool it offers the reach-frame upgrade: a shard
// answering 101 sends the answer as the first frame, and the connection
// joins the pool.
func (p *ProxyBackend) roundTrip(ctx context.Context, method, url string, body []byte, budget int64, pool framePool) ([]byte, int, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rdr)
	if err != nil {
		return nil, 0, err
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
		return nil, 0, err
	}
	if resp.StatusCode == http.StatusSwitchingProtocols {
		rwc, ok := resp.Body.(io.ReadWriteCloser)
		if !ok || pool == nil || resp.Header.Get("Upgrade") != reachProtocol {
			resp.Body.Close()
			return nil, 0, fmt.Errorf("serving: unexpected upgrade to %q", resp.Header.Get("Upgrade"))
		}
		return (&frameConn{rwc: rwc, br: bufio.NewReader(rwc)}).exchange(ctx, pool, nil)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBody))
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}

func truncate(b []byte) string {
	const max = 200
	s := string(b)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
