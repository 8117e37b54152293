package adsapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"nanotarget/internal/interest"
)

// ClientConfig configures the typed Marketing API client.
type ClientConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// AccessToken authenticates every request.
	AccessToken string
	// AccountID is the ad-account the client operates on.
	AccountID string
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts on rate limits and 5xx (default 4).
	MaxRetries int
	// RetryBase is the initial backoff (default 50ms, doubled per retry).
	RetryBase time.Duration
	// Sleep is swappable for tests; defaults to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Client talks to a Marketing API server with retry/backoff on transient
// failures (rate limits back off exponentially; permanent API errors
// propagate as *APIError).
type Client struct {
	cfg  ClientConfig
	http *http.Client
}

// NewClient validates the config.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("adsapi: ClientConfig.BaseURL is required")
	}
	if cfg.AccountID == "" {
		cfg.AccountID = "1"
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
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
	return &Client{cfg: cfg, http: cfg.HTTPClient}, nil
}

// endpoint builds an API URL with the access token attached.
func (c *Client) endpoint(path string, query url.Values) string {
	if query == nil {
		query = url.Values{}
	}
	if c.cfg.AccessToken != "" {
		query.Set("access_token", c.cfg.AccessToken)
	}
	return strings.TrimSuffix(c.cfg.BaseURL, "/") + "/" + APIVersion + path + "?" + query.Encode()
}

// do performs one request with retries on transient failures and decodes
// the JSON body into out. Retryable: network errors, 5xx, HTTP 429 (the
// serving tier's admission control — the wait honors its Retry-After
// header), and FB error 17 bodies (the classic per-token rate limit). Other
// API errors are permanent.
func (c *Client) do(ctx context.Context, method, rawURL string, body []byte, out any) error {
	var lastErr error
	var wait time.Duration
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := c.cfg.Sleep(ctx, wait); err != nil {
				return err
			}
		}
		// Default backoff for whatever failure this attempt hits; a
		// Retry-After header overrides it below.
		wait = c.cfg.RetryBase << attempt
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, rawURL, rdr)
		if err != nil {
			return fmt.Errorf("adsapi: building request: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("adsapi: transport: %w", err)
			continue // network errors are retryable
		}
		data, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if readErr != nil {
			lastErr = fmt.Errorf("adsapi: reading response: %w", readErr)
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("adsapi: server error %d", resp.StatusCode)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Admission throttling: always retryable regardless of the body's
			// error code, waiting as long as the server advertises.
			if ra := ParseRetryAfter(resp.Header.Get("Retry-After")); ra > 0 {
				wait = ra
			}
			var env errorEnvelope
			if err := json.Unmarshal(data, &env); err == nil && env.Error != nil {
				lastErr = env.Error
			} else {
				lastErr = fmt.Errorf("adsapi: HTTP 429: %s", truncateBody(data))
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			var env errorEnvelope
			if err := json.Unmarshal(data, &env); err == nil && env.Error != nil {
				if env.Error.Code == CodeRateLimit {
					lastErr = env.Error
					continue // rate limit: back off and retry
				}
				return env.Error
			}
			return fmt.Errorf("adsapi: HTTP %d: %s", resp.StatusCode, truncateBody(data))
		}
		if out == nil {
			return nil
		}
		if rr, ok := out.(*reachResponse); ok && rr.scan(data) {
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("adsapi: decoding response: %w", err)
		}
		return nil
	}
	return fmt.Errorf("adsapi: retries exhausted: %w", lastErr)
}

// ParseRetryAfter reads a delay-seconds Retry-After value — the only form
// this repository's servers emit (Gate, Admission) — for the client's
// retries. Unparseable or negative values, and values too large for a
// time.Duration, mean "no advice" (0).
func ParseRetryAfter(h string) time.Duration {
	secs, err := strconv.ParseInt(strings.TrimSpace(h), 10, 64)
	if err != nil || secs < 0 || secs > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func truncateBody(b []byte) string {
	const max = 200
	s := string(b)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}

// ReachEstimate returns the Potential Reach of a targeting spec.
func (c *Client) ReachEstimate(ctx context.Context, spec TargetingSpec) (int64, error) {
	q := url.Values{}
	q.Set("targeting_spec", string(marshalJSON(spec)))
	return c.reachAt(ctx, c.endpoint("/act_"+c.cfg.AccountID+"/reachestimate", q))
}

// reachAt requests the reach estimate at rawURL.
func (c *Client) reachAt(ctx context.Context, rawURL string) (int64, error) {
	var resp reachResponse
	if err := c.do(ctx, http.MethodGet, rawURL, nil, &resp); err != nil {
		return 0, err
	}
	if !resp.Data.EstimateReady {
		return 0, errors.New("adsapi: estimate not ready")
	}
	return resp.Data.Users, nil
}

// SearchInterests queries the adinterest search endpoint.
func (c *Client) SearchInterests(ctx context.Context, query string, limit int) ([]SearchResult, error) {
	q := url.Values{}
	q.Set("type", "adinterest")
	q.Set("q", query)
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	var resp searchResponse
	if err := c.do(ctx, http.MethodGet, c.endpoint("/search", q), nil, &resp); err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// CreateCampaign creates a campaign and returns its record (including the
// narrow-audience warning flag).
func (c *Client) CreateCampaign(ctx context.Context, params CampaignParams) (Campaign, error) {
	form := url.Values{}
	form.Set("params", string(marshalJSON(params)))
	var out Campaign
	err := c.do(ctx, http.MethodPost, c.endpoint("/act_"+c.cfg.AccountID+"/campaigns", nil),
		[]byte(form.Encode()), &out)
	return out, err
}

// Insights fetches the dashboard metrics of a campaign.
func (c *Client) Insights(ctx context.Context, campaignID string) (Insights, error) {
	var out Insights
	err := c.do(ctx, http.MethodGet, c.endpoint("/"+campaignID+"/insights", nil), nil, &out)
	return out, err
}

// Source adapts the client as a core.AudienceSource-compatible oracle so the
// uniqueness study can run through the HTTP path exactly as the paper ran
// against the real API. Geo is the location set for every query (the paper
// used the top-50 country list); it must not change after the first query.
type Source struct {
	Client *Client
	Geo    GeoLocations
	// MinReach mirrors the server era's floor so the estimator knows the
	// censoring point.
	MinReach int64
	// Ctx bounds every request; defaults to context.Background().
	Ctx context.Context

	once   sync.Once
	prefix string // every reach URL up to its first interest clause
}

// The query-escaped JSON around the interest IDs of a ConjunctionSpec's
// flexible_spec, as url.Values.Encode writes them.
var (
	escFlexOpen  = url.QueryEscape(`,"flexible_spec":[`)
	escClauseSep = url.QueryEscape(`,`)
	escIDOpen    = url.QueryEscape(`{"interests":[{"id":"`)
	escIDClose   = url.QueryEscape(`"}]}`)
	escFlexClose = url.QueryEscape(`]}`)
	escSpecClose = url.QueryEscape(`}`)
)

// PotentialReach implements the audience oracle via HTTP. It sends the URL
// ReachEstimate sends for ConjunctionSpec(s.Geo, ids), byte for byte
// (TestSourceReachURLBytes), appending each interest's escaped clause to a
// prefix built on the first call.
func (s *Source) PotentialReach(ids []interest.ID) (int64, error) {
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s.once.Do(s.buildPrefix)
	return s.Client.reachAt(ctx, s.reachURL(ids))
}

// buildPrefix builds the reach URL up to the first interest clause: the
// endpoint, the access token (url.Values.Encode sorts it first) and the
// escaped targeting_spec through its geo block.
func (s *Source) buildPrefix() {
	cfg := s.Client.cfg
	p := strings.TrimSuffix(cfg.BaseURL, "/") + "/" + APIVersion + "/act_" + cfg.AccountID + "/reachestimate?"
	if cfg.AccessToken != "" {
		p += "access_token=" + url.QueryEscape(cfg.AccessToken) + "&"
	}
	s.prefix = p + "targeting_spec=" + url.QueryEscape(`{"geo_locations":`+string(marshalJSON(s.Geo)))
}

// reachURL appends the escaped clause of each of ids to the prefix.
func (s *Source) reachURL(ids []interest.ID) string {
	var b strings.Builder
	b.Grow(len(s.prefix) + len(escFlexOpen) + len(ids)*(len(escClauseSep)+len(escIDOpen)+20+len(escIDClose)) + len(escFlexClose))
	b.WriteString(s.prefix)
	var digits [20]byte
	for i, id := range ids {
		if i == 0 {
			b.WriteString(escFlexOpen)
		} else {
			b.WriteString(escClauseSep)
		}
		b.WriteString(escIDOpen)
		b.Write(appendFBInterestID(digits[:0], id))
		b.WriteString(escIDClose)
	}
	if len(ids) > 0 {
		b.WriteString(escFlexClose)
	} else {
		b.WriteString(escSpecClose)
	}
	return b.String()
}

// Floor reports the platform minimum.
func (s *Source) Floor() int64 { return s.MinReach }

// unmarshalStrict decodes exactly one JSON value, rejecting unknown fields
// and any non-space data after the value, so malformed client payloads fail
// loudly instead of being silently ignored or half-read.
func unmarshalStrict(raw string, v any) error {
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
