package adsapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/serving"
)

// ServerConfig configures the simulated Marketing API server.
type ServerConfig struct {
	// Backend serves every reach computation: catalog lookups, demographic
	// bases and flexible-spec union shares. Required. Wire a
	// serving.LocalBackend for the single-world server or a
	// serving.ProxyBackend for replica processes.
	Backend serving.ReachBackend
	// Era selects platform rules (default Era2017).
	Era Era
	// Tokens is the set of valid access tokens. Empty disables auth
	// (useful in tests).
	Tokens []string
	// RateLimit is the sustained requests/second allowed per token
	// (token bucket). Zero disables rate limiting.
	RateLimit float64
	// RateBurst is the bucket capacity (default 2×RateLimit, minimum 1).
	RateBurst float64
	// RoundReach enables FB-style display rounding of reach estimates to
	// two significant digits above 1000. The paper's 2017 dataset shows
	// precise values, so this defaults to off.
	RoundReach bool
	// NarrowWarningThreshold triggers the "audience too narrow" creation
	// warning when estimated reach is at the floor (§8.2). Zero uses the
	// era's MinReach.
	NarrowWarningThreshold int64
	// Now supplies time for rate limiting; defaults to time.Now.
	Now func() time.Time
	// PrewarmRows materializes the backend's full inclusion-row tables at
	// server construction (ReachBackend.WarmRows), trading startup time and
	// memory — catalog × grid × 8 bytes per world, ~80 MiB for a
	// 20k-interest catalog at the default 512-point grid — for zero
	// first-touch latency on cold reach estimates. Off by default: rows
	// materialize lazily per touched interest, which serving workloads
	// amortize within seconds.
	PrewarmRows bool
}

// Server implements the API over net/http.
type Server struct {
	cfg     ServerConfig
	era     Era
	backend serving.ReachBackend
	tokens  map[string]bool
	now     func() time.Time

	mu        sync.Mutex
	buckets   map[string]*bucket
	campaigns map[string]*Campaign
	insights  map[string]Insights
	nextID    int64

	disabled atomic.Bool

	mux *http.ServeMux
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewServer validates the config and builds the handler.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("adsapi: ServerConfig needs a Backend")
	}
	if cfg.Era.Name == "" {
		cfg.Era = Era2017
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.RateLimit > 0 && cfg.RateBurst <= 0 {
		cfg.RateBurst = 2 * cfg.RateLimit
		if cfg.RateBurst < 1 {
			cfg.RateBurst = 1
		}
	}
	backend := cfg.Backend
	if cfg.PrewarmRows {
		// Construction-time warm-up has no caller to give up: Background is
		// correct here, not a missing propagation.
		backend.WarmRows(context.Background())
	}
	s := &Server{
		cfg:       cfg,
		era:       cfg.Era,
		backend:   backend,
		tokens:    make(map[string]bool, len(cfg.Tokens)),
		now:       cfg.Now,
		buckets:   make(map[string]*bucket),
		campaigns: make(map[string]*Campaign),
		insights:  make(map[string]Insights),
		nextID:    1000,
	}
	for _, t := range cfg.Tokens {
		s.tokens[t] = true
	}
	mux := http.NewServeMux()
	prefix := "/" + APIVersion
	mux.HandleFunc(prefix+"/{account}/reachestimate", s.withAuth(s.requireAccount(s.handleReachEstimate)))
	mux.HandleFunc(prefix+"/{account}/campaigns", s.withAuth(s.requireAccount(s.handleCampaigns)))
	mux.HandleFunc(prefix+"/search", s.withAuth(s.handleSearch))
	mux.HandleFunc(prefix+"/serving/health", s.withAuth(s.handleServingHealth))
	mux.HandleFunc(prefix+"/{id}/insights", s.withAuth(s.handleInsights))
	s.mux = mux
	return s, nil
}

// withAuth wraps a handler with token auth, account state and rate limiting;
// it reads the token from the edge parse, attaching one if no pricer did.
func (s *Server) withAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, r := parseEdge(r)
		if !s.authorize(w, p.token) {
			return
		}
		h(w, r)
	}
}

// requireAccount checks the {account} path segment has the act_<id> shape.
func (s *Server) requireAccount(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.PathValue("account"), "act_") {
			s.writeError(w, http.StatusNotFound, &APIError{
				Code: CodeInvalidParam, Type: "GraphMethodException",
				Message: "Unknown node"})
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Era returns the platform rules in force.
func (s *Server) Era() Era { return s.era }

// AudienceStats snapshots the reach cache's hit/miss/eviction counters,
// aggregated across the backend's replicas.
func (s *Server) AudienceStats() audience.Stats {
	return s.backend.AudienceStats(context.Background())
}

// Backend exposes the reach backend the server estimates through.
func (s *Server) Backend() serving.ReachBackend { return s.backend }

// handleServingHealth serves GET /v9.0/serving/health: the serving tier's
// per-replica health rows plus the hedging/failover tallies
// (serving.HealthStats). Only topology-aware backends (the proxy) carry
// health state; in-process backends answer 404 — there is nothing to probe.
// Load generators scrape this after a flood to report how many answers rode
// a hedge or a failover (fbadsload).
func (s *Server) handleServingHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, &APIError{
			Code: CodeInvalidParam, Type: "GraphMethodException",
			Message: "Unsupported method"})
		return
	}
	hb, ok := s.backend.(interface{ HealthStats() serving.HealthStats })
	if !ok {
		s.writeError(w, http.StatusNotFound, &APIError{
			Code: CodeInvalidParam, Type: "GraphMethodException",
			Message: "Backend has no serving health (not a shard proxy)"})
		return
	}
	s.writeJSON(w, hb.HealthStats())
}

// DisableAccount makes every subsequent authorized call fail with FB error
// 368 — reproducing the account closure the authors experienced days after
// the experiment (§8.2).
func (s *Server) DisableAccount() {
	s.disabled.Store(true)
}

// SetInsights attaches dashboard metrics for a campaign (the delivery engine
// reports its results through this).
func (s *Server) SetInsights(campaignID string, in Insights) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.campaigns[campaignID]; !ok {
		return fmt.Errorf("adsapi: unknown campaign %q", campaignID)
	}
	in.CampaignID = campaignID
	if in.Impressions > 0 {
		in.CPMCents = float64(in.SpendCents) / float64(in.Impressions) * 1000
	}
	s.insights[campaignID] = in
	return nil
}

// Campaigns returns a snapshot of stored campaigns (test/diagnostic use).
func (s *Server) Campaigns() []Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, *c)
	}
	return out
}

// --- request plumbing ---

func (s *Server) writeError(w http.ResponseWriter, status int, apiErr *APIError) {
	if apiErr.FBTraceID == "" {
		apiErr.FBTraceID = "sim"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(marshalJSON(errorEnvelope{Error: apiErr}))
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(marshalJSON(v))
}

// authorize validates the token and charges the rate limiter. It returns
// false after writing an error response. Only the token bucket takes s.mu.
func (s *Server) authorize(w http.ResponseWriter, token string) bool {
	if len(s.tokens) > 0 && !s.tokens[token] {
		s.writeError(w, http.StatusUnauthorized, &APIError{
			Code: CodeAuth, Type: "OAuthException",
			Message: "Invalid OAuth access token"})
		return false
	}
	if s.disabled.Load() {
		s.writeError(w, http.StatusForbidden, &APIError{
			Code: CodeAccountDisabled, Type: "OAuthException",
			Message: "The account has been disabled"})
		return false
	}
	if s.cfg.RateLimit > 0 && !s.takeToken(token) {
		s.writeError(w, http.StatusBadRequest, &APIError{
			Code: CodeRateLimit, Type: "OAuthException",
			Message: "User request limit reached"})
		return false
	}
	return true
}

// takeToken refills token's bucket and takes one token from it, reporting
// false when the bucket holds less than one.
func (s *Server) takeToken(token string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[token]
	now := s.now()
	if !ok {
		b = &bucket{tokens: s.cfg.RateBurst, last: now}
		s.buckets[token] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * s.cfg.RateLimit
	if b.tokens > s.cfg.RateBurst {
		b.tokens = s.cfg.RateBurst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// edgeParse is one request's edge parameters, read once at the API edge:
// admission prices from it (AdmissionCost), withAuth reads the token from it
// and the reach-estimate handler answers from it, so the targeting_spec is
// URL-decoded once and decoded once per request.
type edgeParse struct {
	token string // the access_token query parameter
	reachQuery
	specErr *APIError // a missing or malformed targeting_spec: the first 400
}

type edgeParseKey struct{}

// parseEdge returns r's edge parse and the request carrying it: the parse r
// already carries, or a new one attached to a shallow copy of r. The spec
// goes through the reflection-free decodeSpecFast when it is in the
// canonical subset; anything else — every malformed spec included — goes
// through unmarshalStrict, which words each 400.
func parseEdge(r *http.Request) (*edgeParse, *http.Request) {
	if p, ok := r.Context().Value(edgeParseKey{}).(*edgeParse); ok {
		return p, r
	}
	raw, token := edgeQuery(r.URL.RawQuery)
	p := &edgeParse{token: token}
	if spec, ok := decodeSpecFast(raw); ok {
		p.reachQuery = newReachQuery(spec)
	} else if raw == "" {
		p.specErr = &APIError{Code: CodeInvalidParam, Type: "OAuthException", Message: "Missing targeting_spec"}
	} else if err := unmarshalStrict(raw, &p.spec); err != nil {
		p.specErr = &APIError{Code: CodeInvalidParam, Type: "OAuthException",
			Message: "Malformed targeting_spec: " + err.Error()}
	} else {
		p.reachQuery = newReachQuery(p.spec)
	}
	return p, r.WithContext(context.WithValue(r.Context(), edgeParseKey{}, p))
}

// edgeQuery returns url.ParseQuery(rawQuery)'s first targeting_spec and
// access_token values in one pass, without building url.Values: pairs split
// at '&', a pair holding a ';' or an invalid escape is dropped, keys and
// values are unescaped with '+' as a space, and the first value of a key
// wins (FuzzEdgeQuery).
func edgeQuery(rawQuery string) (spec, token string) {
	var haveSpec, haveToken bool
	for rawQuery != "" && !(haveSpec && haveToken) {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(key, "%+") {
			k, err := url.QueryUnescape(key)
			if err != nil {
				continue
			}
			key = k
		}
		switch {
		case key == "targeting_spec" && !haveSpec:
			spec, haveSpec = queryUnescape(value)
		case key == "access_token" && !haveToken:
			token, haveToken = queryUnescape(value)
		}
	}
	return spec, token
}

// queryUnescape is url.QueryUnescape reporting success instead of an error.
func queryUnescape(s string) (string, bool) {
	v, err := url.QueryUnescape(s)
	return v, err == nil
}

// reachQuery is a decoded targeting spec converted once for estimation: its
// demographic filter and catalog-ID clauses, or the conversion error.
type reachQuery struct {
	spec       TargetingSpec
	demo       population.DemoFilter
	clauses    [][]interest.ID
	clausesErr error
}

// newReachQuery parses each interest ID of spec once; on a malformed ID,
// clauses holds the IDs before it, which validation walks.
func newReachQuery(spec TargetingSpec) reachQuery {
	q := reachQuery{spec: spec, demo: spec.DemoFilter()}
	q.clauses, q.clausesErr = spec.parseClauses()
	return q
}

// estimateReach computes the floored (and optionally rounded) Potential
// Reach for a decoded spec. Estimates are conditional on the audience
// containing at least one real member — matching the platform's behaviour of
// counting actual users, since every combination the paper queries comes
// from a real profile (§4.1). It returns false after writing an error
// response: 400 for a spec that fails validation, and writeBackendError's
// status for a backend failure.
func (s *Server) estimateReach(w http.ResponseWriter, r *http.Request, q reachQuery) (int64, bool) {
	if ae := q.spec.validate(s.era, s.backend.Catalog(), q.clauses, q.clausesErr); ae != nil {
		s.writeError(w, http.StatusBadRequest, ae)
		return 0, false
	}
	demo, share, err := s.backend.ReachShares(r.Context(), q.demo, q.clauses)
	if err != nil {
		s.writeBackendError(w, err)
		return 0, false
	}
	base := float64(s.backend.Population())*demo - 1
	if base < 0 {
		base = 0
	}
	reach := int64(1 + base*share + 0.5)
	if reach < s.era.MinReach {
		reach = s.era.MinReach
	}
	if s.cfg.RoundReach {
		reach = roundSignificant(reach, 2)
	}
	return reach, true
}

// writeBackendError maps a ReachBackend failure to its FB error envelope:
// *serving.UnavailableError (no replica answered) is a 503 naming the
// replicas, and *serving.CanceledError (the request context ended mid-query)
// is a 504 for an expired deadline or a 503 for a client cancel — the
// latter mostly for the log's benefit, since a canceled client is no longer
// reading. Any other backend error is a 500.
func (s *Server) writeBackendError(w http.ResponseWriter, err error) {
	var ue *serving.UnavailableError
	var ce *serving.CanceledError
	switch {
	case errors.As(err, &ue):
		s.writeError(w, http.StatusServiceUnavailable, &APIError{
			Code: CodeServiceUnavailable, Type: "ApiUnknownException",
			Message: fmt.Sprintf("Service temporarily unavailable: %d replica(s) down: %s",
				len(ue.Down), strings.Join(ue.Down, ", "))})
	case errors.As(err, &ce):
		status := http.StatusServiceUnavailable
		msg := "Request canceled before the estimate completed"
		if errors.Is(ce, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
			msg = "Request deadline exceeded before the estimate completed"
		}
		s.writeError(w, status, &APIError{
			Code: CodeServiceUnavailable, Type: "ApiUnknownException", Message: msg})
	default:
		s.writeError(w, http.StatusInternalServerError, &APIError{
			Code: CodeServiceUnavailable, Type: "ApiUnknownException", Message: err.Error()})
	}
}

func (s *Server) handleReachEstimate(w http.ResponseWriter, r *http.Request) {
	p, r := parseEdge(r)
	if p.specErr != nil {
		s.writeError(w, http.StatusBadRequest, p.specErr)
		return
	}
	reach, ok := s.estimateReach(w, r, p.reachQuery)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendReachAnswer(make([]byte, 0, 64), reach))
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if err := r.ParseForm(); err != nil {
			s.writeError(w, http.StatusBadRequest, &APIError{
				Code: CodeInvalidParam, Type: "OAuthException", Message: "bad form"})
			return
		}
		var params CampaignParams
		raw := r.PostFormValue("params")
		if raw == "" {
			raw = r.URL.Query().Get("params")
		}
		if err := unmarshalStrict(raw, &params); err != nil {
			s.writeError(w, http.StatusBadRequest, &APIError{
				Code: CodeInvalidParam, Type: "OAuthException",
				Message: "Malformed params: " + err.Error()})
			return
		}
		reach, ok := s.estimateReach(w, r, newReachQuery(params.Targeting))
		if !ok {
			return
		}
		threshold := s.cfg.NarrowWarningThreshold
		if threshold == 0 {
			threshold = s.era.MinReach
		}
		s.mu.Lock()
		s.nextID++
		c := &Campaign{
			ID:                    fmt.Sprintf("238%09d", s.nextID),
			Params:                params,
			EstimatedReach:        reach,
			NarrowAudienceWarning: reach <= threshold,
		}
		s.campaigns[c.ID] = c
		s.mu.Unlock()
		s.writeJSON(w, c)
	case http.MethodGet:
		s.mu.Lock()
		out := make([]Campaign, 0, len(s.campaigns))
		for _, c := range s.campaigns {
			out = append(out, *c)
		}
		s.mu.Unlock()
		s.writeJSON(w, struct {
			Data []Campaign `json:"data"`
		}{Data: out})
	default:
		s.writeError(w, http.StatusMethodNotAllowed, &APIError{
			Code: CodeInvalidParam, Type: "GraphMethodException",
			Message: "Unsupported method"})
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	if query.Get("type") != "adinterest" {
		s.writeError(w, http.StatusBadRequest, &APIError{
			Code: CodeInvalidParam, Type: "OAuthException",
			Message: "Unsupported search type"})
		return
	}
	limit := 25
	if raw := query.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			s.writeError(w, http.StatusBadRequest, &APIError{
				Code: CodeInvalidParam, Type: "OAuthException",
				Message: "Invalid limit"})
			return
		}
		limit = v
	}
	cat := s.backend.Catalog()
	var results []SearchResult
	for _, in := range cat.Search(query.Get("q"), limit) {
		results = append(results, SearchResult{
			ID:           FBInterestID(in.ID),
			Name:         in.Name,
			AudienceSize: cat.AudienceSize(in.ID, s.backend.Population()),
			Path:         []string{"Interests", in.Category, in.Name},
			Topic:        in.Category,
		})
	}
	s.writeJSON(w, searchResponse{Data: results})
}

// handleInsights serves /v9.0/<campaign id>/insights.
func (s *Server) handleInsights(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	in, ok := s.insights[id]
	_, known := s.campaigns[id]
	s.mu.Unlock()
	if !known {
		s.writeError(w, http.StatusNotFound, &APIError{
			Code: CodeInvalidParam, Type: "GraphMethodException",
			Message: fmt.Sprintf("Unknown campaign %q", id)})
		return
	}
	if !ok {
		in = Insights{CampaignID: id, Currency: "EUR"}
	}
	s.writeJSON(w, in)
}

// roundSignificant rounds v to the given number of significant decimal
// digits when v >= 1000 (FB-style display rounding).
func roundSignificant(v int64, digits int) int64 {
	if v < 1000 {
		return v
	}
	mag := int64(1)
	x := v
	for x >= pow10(digits) {
		x /= 10
		mag *= 10
	}
	return ((v + mag/2) / mag) * mag
}

func pow10(n int) int64 {
	out := int64(1)
	for i := 0; i < n; i++ {
		out *= 10
	}
	return out
}
