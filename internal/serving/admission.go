package serving

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AdmissionConfig configures the per-account admission controller that
// fronts the Marketing API server. It is the serving tier's outer defense
// against the multi-account probe floods of Faizullabhoy & Korolova —
// distinct from (and composable with) adsapi's per-token rate limiter,
// which models the platform's FB-error-17 behaviour: admission rejects with
// plain HTTP semantics, 429 + Retry-After, before the request reaches the
// API handler at all.
type AdmissionConfig struct {
	// Rate is the sustained requests/second each ad account may submit.
	// Zero or negative disables admission control (every request passes).
	Rate float64
	// Burst is the token-bucket capacity (default 2×Rate, minimum 1).
	Burst float64
	// Cost prices a request in tokens and returns the request the inner
	// handler receives. adsapi.AdmissionCost charges serving.SpecCost, the
	// row-kernel work, and returns the request carrying its parse for the
	// handler to share; a fixed-cost pricer returns its argument. Nil
	// charges every request 1 token (the legacy flat policy). Costs are
	// clamped to [1, Burst]: a spec can never cost less than a request, and
	// a single spec pricier than the whole bucket must still be admittable
	// from a full bucket.
	Cost func(*http.Request) (float64, *http.Request)
	// Now supplies time; defaults to time.Now. Injectable for tests.
	Now func() time.Time
}

// AdmissionStats counts admission decisions and bucket-table churn.
type AdmissionStats struct {
	Admitted int64
	Rejected int64
	// Buckets is the live bucket count; Evicted counts buckets dropped by
	// the idle sweep. Their sum over time tracks distinct accounts seen.
	Buckets int64
	Evicted int64
	// TokensCharged totals the cost of admitted requests — with a Cost
	// function wired, TokensCharged/Admitted is the average spec
	// complexity the server absorbed.
	TokensCharged float64
}

// Admission is an http.Handler that applies per-account token buckets in
// front of an inner handler. Accounts are identified by the act_<id> path
// segment of Marketing API URLs, falling back to the access token, so both
// the many-accounts abuse pattern and anonymous probing are throttled.
type Admission struct {
	cfg  AdmissionConfig
	next http.Handler

	mu        sync.Mutex
	buckets   map[string]*admissionBucket
	lastSweep time.Time
	stats     AdmissionStats
}

type admissionBucket struct {
	tokens float64
	last   time.Time
}

// admissionError is the 429 response body: serving-tier shaped (it is not
// an adsapi error — the request never reached the API).
type admissionError struct {
	Error struct {
		Message           string  `json:"message"`
		Type              string  `json:"type"`
		Code              int     `json:"code"`
		RetryAfterSeconds float64 `json:"retry_after_seconds"`
	} `json:"error"`
}

// NewAdmission wraps next with admission control.
func NewAdmission(cfg AdmissionConfig, next http.Handler) *Admission {
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = 2 * cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Admission{cfg: cfg, next: next, buckets: make(map[string]*admissionBucket)}
}

// AccountKey extracts the throttling key from a request: the first
// act_<id> path segment if present, otherwise the access token, otherwise
// a shared anonymous key.
func AccountKey(r *http.Request) string {
	for _, seg := range strings.Split(r.URL.Path, "/") {
		if strings.HasPrefix(seg, "act_") {
			return seg
		}
	}
	if tok := r.URL.Query().Get("access_token"); tok != "" {
		return "token:" + tok
	}
	return "anonymous"
}

// Stats snapshots the admission counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.Buckets = int64(len(a.buckets))
	return st
}

// ServeHTTP admits or rejects, then delegates.
func (a *Admission) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a.cfg.Rate <= 0 {
		a.next.ServeHTTP(w, r)
		return
	}
	key := AccountKey(r)
	cost := 1.0
	if a.cfg.Cost != nil {
		cost, r = a.cfg.Cost(r)
		if cost < 1 {
			cost = 1
		}
		if cost > a.cfg.Burst {
			cost = a.cfg.Burst
		}
	}
	wait, ok := a.admit(key, cost)
	if !ok {
		seconds := math.Ceil(wait.Seconds())
		if seconds < 1 {
			seconds = 1
		}
		var body admissionError
		body.Error.Message = "Too many requests for ad account " + key
		body.Error.Type = "AdmissionThrottled"
		body.Error.Code = http.StatusTooManyRequests
		// The body must advertise the same ceiled wait as the Retry-After
		// header: the raw fractional wait is the time until ONE token
		// accrues, so a client sleeping exactly that long raced the bucket
		// boundary and was often rejected again on retry.
		body.Error.RetryAfterSeconds = seconds
		buf, _ := json.Marshal(body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", strconv.Itoa(int(seconds)))
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write(buf)
		return
	}
	a.next.ServeHTTP(w, r)
}

// admit charges cost tokens from key's bucket (cost is pre-clamped to
// [1, Burst] by the caller). When the bucket cannot cover the cost it
// reports how long until enough tokens accrue.
func (a *Admission) admit(key string, cost float64) (wait time.Duration, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.cfg.Now()
	a.sweep(now)
	b, exists := a.buckets[key]
	if !exists {
		b = &admissionBucket{tokens: a.cfg.Burst, last: now}
		a.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * a.cfg.Rate
	if b.tokens > a.cfg.Burst {
		b.tokens = a.cfg.Burst
	}
	b.last = now
	if b.tokens < cost {
		a.stats.Rejected++
		secs := (cost - b.tokens) / a.cfg.Rate
		return time.Duration(secs * float64(time.Second)), false
	}
	b.tokens -= cost
	a.stats.Admitted++
	a.stats.TokensCharged += cost
	return 0, true
}

// refillPeriod is how long an empty bucket takes to refill to Burst — the
// point past which an idle bucket is indistinguishable from a fresh one.
func (a *Admission) refillPeriod() time.Duration {
	return time.Duration(a.cfg.Burst / a.cfg.Rate * float64(time.Second))
}

// sweep evicts buckets idle for at least a full refill period: such a bucket
// has refilled to Burst, which is exactly the state admit() creates for an
// unknown key, so dropping it cannot change any admission decision. The
// unbounded alternative is a real leak — one bucket per ad account forever
// is the memory cost of the precise many-accounts flood admission defends
// against. Sweeping at most once per refill period amortizes the full-map
// scan to O(1) per request. Caller holds a.mu.
func (a *Admission) sweep(now time.Time) {
	period := a.refillPeriod()
	if now.Sub(a.lastSweep) < period {
		return
	}
	a.lastSweep = now
	for key, b := range a.buckets {
		if now.Sub(b.last) >= period {
			delete(a.buckets, key)
			a.stats.Evicted++
		}
	}
}
