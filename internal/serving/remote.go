// Process-sharded serving: the network topology behind `fbadsd -shard-of` /
// `-proxy`. A ShardServer exposes one shard's reach primitives over a small
// HTTP RPC with binary share bodies; a ProxyBackend implements ReachBackend
// over N shard processes — each optionally replicated — by sending each
// estimate to one shard in rotation, with per-RPC timeouts, bounded jittered
// retry, hedged requests, health-checked failover across shards (health.go)
// and per-replica circuit breakers (breaker.go).
//
// # Replication and hedging
//
// Each shard position can be served by a replica SET (ProxyConfig.Shards,
// `fbadsd -proxy "u0a|u0b,u1"`). Replicas of a shard are byte-identical
// worlds by construction — shard models are share-calibrated pure functions
// of (worldcfg.Config, range), and the per-replica health probes verify the
// full identity (index/count/range/population/catalog/world digest) against
// the proxy's own config — so routing between them never changes an answer.
// Per RPC the proxy picks the preferred (lowest-index) live replica; on
// failure it fails over to the next live replica, and with HedgeAfter armed
// it additionally fires the SAME request at the next live replica once the
// hedge delay elapses without an answer — first success wins and the losers'
// contexts are canceled (their breakers see OnCanceled, not OnFailure). Only
// when EVERY replica of the chosen shard fails does the degradation policy
// decide between trying the next shard and refusing.
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
// A shard process builds its model with the same range arithmetic and
// share-based calibration as ShardedBackend (NewShardBackend), so its
// shares equal the single world's bit for bit — every shard's, every
// replica's. A share answer carries each float64's IEEE-754 bits (see
// "Share bodies"), so the wire adds no error either. The proxy therefore
// returns the answering shard's pair unchanged, and every answer it serves —
// healthy, after replica failover, or after failing over to another shard —
// is byte-identical to LocalBackend's: property-gated in remote_test.go
// over replicas {1,2} × shards {1,2,3} × seeds {0,1,42}, hedging armed.
//
// The fused reach-shares RPC carries both factors of one estimate, computed
// by the same two engine calls the single-share endpoints make, so one RPC
// answers an estimate.
//
// # Share bodies
//
// The share RPCs (reachshares, demoshare, unionshare, conjunctionshare)
// carry binary bodies, so neither side runs reflection on the hot path. A
// request is a filter flag byte (0 none, 1 present); the filter in its
// self-delimiting key encoding (population.DemoFilter.AppendKey:
// length-prefixed countries, one byte per gender, varint ages); the clauses
// as a uvarint count of uvarint-counted uvarint ID lists; and the
// conjunction IDs as one uvarint-counted uvarint ID list. A 200 answer is
// the IEEE-754 bits of each share, 8 bytes little-endian per share; the
// proxy refuses any other length as a bad response, so a build speaking the
// old JSON bodies fails loudly on either side instead of turning into a
// number. Error bodies stay JSON, as do health, stats and warmrows.
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
		IdleConnTimeout:     shardIdleConnTimeout,
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
	TotalPopulation int64  `json:"total_population"`
	CatalogSize     int    `json:"catalog_size"`
	World           string `json:"world"` // worldDigest of the shard's config
}

// shardShareRequest is the request shared by the share endpoints; each
// endpoint reads the fields it needs (the fused reach-shares endpoint reads
// Filter and Clauses). Its wire form is binary (see "Share bodies").
type shardShareRequest struct {
	Filter  *population.DemoFilter
	Clauses [][]interest.ID
	IDs     []interest.ID
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
		b = appendIDs(b, c)
	}
	return appendIDs(b, req.IDs)
}

func appendIDs(b []byte, ids []interest.ID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return b
}

// decodeShareBody inverts encode. It rejects a bad filter flag, a truncated
// body, trailing bytes, an ID above MaxUint32, and any count larger than the
// bytes left (every element takes at least one byte), so no count can drive
// a huge allocation. An empty clause list or ID list decodes to nil.
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
	// left; the lists are windows onto it.
	d := idReader{b: body, ids: make([]interest.ID, 0, len(body))}
	if n := d.count(); n > 0 {
		req.Clauses = make([][]interest.ID, n)
		for i := range req.Clauses {
			req.Clauses[i] = d.list()
		}
	}
	if ids := d.list(); len(ids) > 0 {
		req.IDs = ids
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
	// World is the worldDigest of the shard's config.
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
	return b, ShardInfo{Index: index, Count: count, Range: r, TotalPopulation: pop, World: worldDigest(cfg)}, nil
}

// ShardServer serves one shard's reach primitives over the shard RPC (binary
// share bodies, JSON everywhere else; see "Share bodies"): the per-process
// counterpart of a ShardedBackend shard. It is an http.Handler; fbadsd
// mounts it on -shard-listen. The RPC surface trusts its caller (the proxy
// validates specs upstream) but still rejects malformed or oversized bodies
// and unknown interest IDs with 400s so a stray request cannot crash the
// shard.
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
	for _, path := range []string{shardPathDemo, shardPathUnion, shardPathReach, shardPathConj} {
		mux.HandleFunc("POST "+path, s.handleShare)
	}
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
	known := func(ids []interest.ID) error {
		for _, id := range ids {
			if _, err := cat.Get(id); err != nil {
				return fmt.Errorf("unknown interest %d", id)
			}
		}
		return nil
	}
	for _, clause := range req.Clauses {
		if err := known(clause); err != nil {
			return req, err
		}
	}
	return req, known(req.IDs)
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
		World:           s.info.World,
	})
}

// shareAnswer answers one share RPC body of path, whichever envelope
// carried it: 200 with the shares' bits, 400 for a body parseShareBody
// refuses, or 504 when ctx ended before compute. The fused reachshares RPC
// answers both factors of one estimate from the same engine calls, in the
// same order, as the demoshare and unionshare RPCs.
func (s *ShardServer) shareAnswer(ctx context.Context, path string, body []byte) (int, []byte) {
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
	out := make([]byte, 0, 16)
	switch path {
	case shardPathDemo:
		return http.StatusOK, appendShares(out, s.backend.DemoShare(ctx, f))
	case shardPathUnion:
		return http.StatusOK, appendShares(out, s.backend.UnionShare(ctx, req.Clauses))
	case shardPathConj:
		return http.StatusOK, appendShares(out, s.backend.Engine().ConjunctionShare(req.IDs))
	}
	demo, union, _ := s.backend.ReachShares(ctx, f, req.Clauses) // a LocalBackend never fails
	return http.StatusOK, appendShares(out, demo, union)
}

// handleShare serves a share RPC over HTTP, reading at most maxShareBody
// bytes. A reach RPC offering the frame upgrade gets its answer as the
// first frame when the connection can be hijacked.
func (s *ShardServer) handleShare(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShareBody))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	status, payload := s.shareAnswer(r.Context(), r.URL.Path, body)
	if r.URL.Path == shardPathReach && r.Header.Get("Upgrade") == reachProtocol && s.upgrade(w, r, status, payload) {
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
	// (same index/count/range/population/catalog/world digest — ProbeNow
	// verifies each replica independently against the proxy's config).
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
	world   string // worldDigest of the proxy's config
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
	frames   [][]framePool    // each replica's idle upgraded connections
	rpcs     [][]atomic.Int64 // data-RPC attempts per replica

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
	// Without keep-alives, replicas get nil frame pools, which offer no upgrade.
	t, ok := pc.Client.Transport.(*http.Transport)
	keepAlive := !ok || !t.DisableKeepAlives
	breakers := make([][]*breaker, n)
	frames := make([][]framePool, n)
	rpcs := make([][]atomic.Int64, n)
	for i := range breakers {
		breakers[i] = make([]*breaker, len(shards[i]))
		frames[i] = make([]framePool, len(shards[i]))
		rpcs[i] = make([]atomic.Int64, len(shards[i]))
		for r := range breakers[i] {
			breakers[i][r] = newBreaker(pc.Breaker)
			if keepAlive {
				frames[i][r] = make(framePool, shardIdleConnsPerHost)
			}
		}
	}
	return &ProxyBackend{
		catalog:       cat,
		pop:           pop,
		world:         worldDigest(cfg),
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
		frames:        frames,
		rpcs:          rpcs,
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
	data, err := p.ask(ctx, shardPathReach, shardShareRequest{Filter: &f, Clauses: clauses}.encode())
	if err == nil {
		err = decodeShares(data, &demo, &union)
	}
	return demo, union, err
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
func (p *ProxyBackend) share(ctx context.Context, path string, req shardShareRequest) (share float64, err error) {
	data, err := p.ask(ctx, path, req.encode())
	if err == nil {
		err = decodeShares(data, &share)
	}
	return share, err
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
		data, err := p.callShard(ctx, i, http.MethodGet, shardPathStats, nil, bud)
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
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
				_, _ = p.callReplica(ctx, i, r, http.MethodPost, shardPathWarm, nil, nil)
				return nil
			})
		}
	}
	_ = parallel.ForEach(ctx, len(units), len(units), func(k int) error { return units[k]() })
}

// ask sends one share RPC body to the shard whose turn it is and returns its
// answer's body. Per shard the RPC runs against the shard's replica set
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
func (p *ProxyBackend) ask(ctx context.Context, path string, body []byte) ([]byte, error) {
	if p.policy == PolicyFail {
		if down := p.health.deadURLs(); len(down) > 0 {
			return nil, &UnavailableError{Down: down}
		}
	}
	n := len(p.shards)
	first := p.turn.pick(n)
	bud := p.newQueryBudget()
	var down []string
	for k := 0; k < n; k++ {
		i := (first + k) % n
		data, err := p.callShard(ctx, i, http.MethodPost, path, body, bud)
		if err == nil {
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, &CanceledError{Err: ctx.Err()}
		}
		down = append(down, p.shards[i]...)
		if p.policy == PolicyFail {
			break
		}
	}
	return nil, &UnavailableError{Down: down}
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
// (callReplicas) and returns the winning response's body. A shard-level
// error means NO usable replica produced an answer.
func (p *ProxyBackend) callShard(ctx context.Context, shard int, method, path string, body []byte, bud *queryBudget) ([]byte, error) {
	candidates := p.health.liveReplicas(shard)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("serving: shard %d: all %d replica(s) marked down", shard, len(p.shards[shard]))
	}
	return p.callReplicas(ctx, shard, candidates, method, path, body, bud)
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
		data, status, retryAfter, err := p.attempt(ctx, shard, replica, method, path, body)
		if err != nil {
			if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
				lastErr, unreachable, serverWait = err, err, 0
			}
			if ctx.Err() != nil {
				// The caller is gone: retrying can only waste shard work. A
				// failure that came before the cancel still counts above.
				return abandon(err)
			}
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
			serverWait = retryAfter
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

// attempt performs one RPC attempt under min(caller deadline, per-RPC
// timeout) — context.WithTimeout never extends an earlier parent deadline —
// and forwards the remaining budget. A reach RPC goes as a frame on a
// pooled upgraded connection when the replica has one, and otherwise as an
// HTTP round trip offering the upgrade. It returns the answer's body,
// status and Retry-After.
func (p *ProxyBackend) attempt(ctx context.Context, shard, replica int, method, path string, body []byte) ([]byte, int, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	d, _ := ctx.Deadline()
	budget := max(time.Until(d).Milliseconds(), 1)
	p.rpcs[shard][replica].Add(1)
	var pool framePool
	if path == shardPathReach {
		pool = p.frames[shard][replica]
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
	return p.roundTrip(ctx, method, p.shards[shard][replica]+path, body, budget, pool)
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
