// Package adsapi simulates the Facebook Marketing API surface the paper
// depends on (§2.1): reach estimation for targeting specs, interest search,
// campaign management and insights — served over HTTP with FB-style request
// and error shapes, token auth, per-token rate limiting, and the platform's
// era-dependent minimum-reach flooring (20 in the 2017 dataset, 1000 today,
// 100 with the workaround of Gendronneau et al. [18]).
//
// The package provides both the server (NewServer) and a typed client
// (NewClient) with retry/backoff, plus an adapter that lets the uniqueness
// study consume reach numbers through the same HTTP path the paper used.
package adsapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"nanotarget/internal/geo"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
)

// APIVersion is the Graph API version prefix the server mounts.
const APIVersion = "v9.0"

// fbIDBase offsets catalog interest IDs into FB-style numeric IDs.
const fbIDBase int64 = 6_000_000_000_000

// FBInterestID converts a catalog ID to its API identifier.
func FBInterestID(id interest.ID) string {
	return strconv.FormatInt(fbIDBase+int64(id), 10)
}

// appendFBInterestID appends FBInterestID(id) to dst.
func appendFBInterestID(dst []byte, id interest.ID) []byte {
	return strconv.AppendInt(dst, fbIDBase+int64(id), 10)
}

// ParseFBInterestID converts an API identifier back to a catalog ID. It
// accepts only the canonical form FBInterestID writes: decimal digits with
// no sign, leading zero, space or trailing byte, naming an ID inside the
// catalog ID range (so no two identifiers alias one interest).
func ParseFBInterestID(s string) (interest.ID, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	// ParseInt also takes a sign and leading zeros; the canonical form has
	// neither.
	if err != nil || s[0] < '1' || s[0] > '9' {
		return 0, fmt.Errorf("adsapi: malformed interest id %q", s)
	}
	if v < fbIDBase || v-fbIDBase > math.MaxUint32 {
		return 0, fmt.Errorf("adsapi: interest id %q out of range", s)
	}
	return interest.ID(v - fbIDBase), nil
}

// Era captures the platform rules at a point in time (§2.1).
type Era struct {
	// Name identifies the era in logs and configs.
	Name string
	// MinReach is the smallest Potential Reach the API reports.
	MinReach int64
	// AllowWorldwide reports whether "worldwide" is a legal location.
	AllowWorldwide bool
	// MaxLocations caps the geo_locations country list.
	MaxLocations int
	// MaxInterests caps the total interests in one targeting spec.
	MaxInterests int
}

// The three platform eras the paper discusses.
var (
	// Era2017 matches the dataset-collection era: floor 20, no worldwide
	// targeting, at most 50 locations per query.
	Era2017 = Era{Name: "2017", MinReach: 20, AllowWorldwide: false, MaxLocations: 50, MaxInterests: 25}
	// Era2020 matches the nanotargeting-experiment era: floor 1000,
	// worldwide targeting allowed.
	Era2020 = Era{Name: "2020", MinReach: 1000, AllowWorldwide: true, MaxLocations: 50, MaxInterests: 25}
	// EraWorkaround is Era2020 with the [18] reach-inference workaround
	// that effectively lowers the floor to 100.
	EraWorkaround = Era{Name: "2020-workaround", MinReach: 100, AllowWorldwide: true, MaxLocations: 50, MaxInterests: 25}
)

// InterestRef references an interest inside a targeting spec.
type InterestRef struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
}

// FlexibleClause is one AND-clause of a flexible spec; the interests inside
// are ORed.
type FlexibleClause struct {
	Interests []InterestRef `json:"interests"`
}

// GeoLocations mirrors the FB targeting geo block.
type GeoLocations struct {
	Countries []string `json:"countries,omitempty"`
	// Worldwide is this simulator's encoding of the 2020-era "everywhere"
	// option (the real dashboard exposes it as a location choice).
	Worldwide bool `json:"worldwide,omitempty"`
}

// TargetingSpec is the audience definition submitted to the API.
type TargetingSpec struct {
	GeoLocations GeoLocations     `json:"geo_locations"`
	Genders      []int            `json:"genders,omitempty"` // 1 = male, 2 = female
	AgeMin       int              `json:"age_min,omitempty"`
	AgeMax       int              `json:"age_max,omitempty"`
	FlexibleSpec []FlexibleClause `json:"flexible_spec,omitempty"`
}

// ConjunctionSpec builds the common case used throughout the paper: one
// AND-clause per interest (a pure conjunction).
func ConjunctionSpec(geo GeoLocations, ids []interest.ID) TargetingSpec {
	spec := TargetingSpec{GeoLocations: geo}
	for _, id := range ids {
		spec.FlexibleSpec = append(spec.FlexibleSpec, FlexibleClause{
			Interests: []InterestRef{{ID: FBInterestID(id)}},
		})
	}
	return spec
}

// Validate checks the spec against era rules and the catalog; it returns an
// *APIError with FB-style codes on violation.
func (t TargetingSpec) Validate(era Era, cat *interest.Catalog) error {
	clauses, err := t.parseClauses()
	if ae := t.validate(era, cat, clauses, err); ae != nil {
		return ae
	}
	return nil
}

// validate is Validate over the spec's interest IDs as parseClauses parsed
// them: clauses holds every ID before the first malformed one, whose error
// is idErr. The IDs are walked once in spec order, so the first ID that is
// malformed or names no catalog interest is the one the error names.
func (t TargetingSpec) validate(era Era, cat *interest.Catalog, clauses [][]interest.ID, idErr error) *APIError {
	if t.GeoLocations.Worldwide {
		if !era.AllowWorldwide {
			return &APIError{Code: 100, Type: "OAuthException",
				Message: "Invalid parameter: worldwide targeting is not available"}
		}
	} else {
		if len(t.GeoLocations.Countries) == 0 {
			return &APIError{Code: 100, Type: "OAuthException",
				Message: "Invalid parameter: a location is required to define an audience"}
		}
		if len(t.GeoLocations.Countries) > era.MaxLocations {
			return &APIError{Code: 100, Type: "OAuthException",
				Message: fmt.Sprintf("Invalid parameter: at most %d locations allowed", era.MaxLocations)}
		}
		for _, c := range t.GeoLocations.Countries {
			if err := geo.ValidateCode(c); err != nil {
				return &APIError{Code: 100, Type: "OAuthException",
					Message: fmt.Sprintf("Invalid parameter: unknown country %q", c)}
			}
		}
	}
	for _, g := range t.Genders {
		if g != 1 && g != 2 {
			return &APIError{Code: 100, Type: "OAuthException",
				Message: fmt.Sprintf("Invalid parameter: gender %d", g)}
		}
	}
	if t.AgeMin < 0 || t.AgeMax < 0 || (t.AgeMax > 0 && t.AgeMin > t.AgeMax) {
		return &APIError{Code: 100, Type: "OAuthException",
			Message: "Invalid parameter: age range"}
	}
	if t.interestCount() > era.MaxInterests {
		return &APIError{Code: 100, Type: "OAuthException",
			Message: fmt.Sprintf("Invalid parameter: at most %d interests allowed", era.MaxInterests)}
	}
	for _, clause := range clauses {
		for _, id := range clause {
			if !cat.Has(id) {
				// A parsed ID is canonical, so FBInterestID gives back the
				// string the spec carried.
				return &APIError{Code: 100, Type: "OAuthException",
					Message: "Invalid parameter: unknown interest " + FBInterestID(id)}
			}
		}
	}
	if idErr != nil {
		return &APIError{Code: 100, Type: "OAuthException", Message: idErr.Error()}
	}
	return nil
}

// interestCount is the number of interests across the flexible spec.
func (t TargetingSpec) interestCount() int {
	n := 0
	for _, c := range t.FlexibleSpec {
		n += len(c.Interests)
	}
	return n
}

// DemoFilter converts the spec's demographic block into the population
// model's filter type.
func (t TargetingSpec) DemoFilter() population.DemoFilter {
	f := population.DemoFilter{AgeMin: t.AgeMin, AgeMax: t.AgeMax}
	if !t.GeoLocations.Worldwide {
		f.Countries = append(f.Countries, t.GeoLocations.Countries...)
	}
	for _, g := range t.Genders {
		switch g {
		case 1:
			f.Genders = append(f.Genders, population.GenderMale)
		case 2:
			f.Genders = append(f.Genders, population.GenderFemale)
		}
	}
	return f
}

// Clauses converts the flexible spec into catalog-ID clauses. The spec must
// have been validated first.
func (t TargetingSpec) Clauses() ([][]interest.ID, error) {
	out, err := t.parseClauses()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parseClauses parses every interest ID once, in spec order, into
// catalog-ID clauses, dropping empty clauses. On a malformed ID it stops
// and returns the clauses parsed so far — the failing clause's parsed
// prefix included — with the error. The clauses share one backing array,
// each capped at its own length.
func (t TargetingSpec) parseClauses() ([][]interest.ID, error) {
	n := t.interestCount()
	if n == 0 {
		return nil, nil
	}
	ids := make([]interest.ID, 0, n)
	out := make([][]interest.ID, 0, len(t.FlexibleSpec))
	for _, c := range t.FlexibleSpec {
		start := len(ids)
		for _, in := range c.Interests {
			id, err := ParseFBInterestID(in.ID)
			if err != nil {
				if len(ids) > start {
					out = append(out, ids[start:len(ids):len(ids)])
				}
				return out, err
			}
			ids = append(ids, id)
		}
		if len(ids) > start {
			out = append(out, ids[start:len(ids):len(ids)])
		}
	}
	return out, nil
}

// APIError is the FB Graph API error envelope.
type APIError struct {
	Message   string `json:"message"`
	Type      string `json:"type"`
	Code      int    `json:"code"`
	Subcode   int    `json:"error_subcode,omitempty"`
	FBTraceID string `json:"fbtrace_id,omitempty"`
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("adsapi: (#%d) %s", e.Code, e.Message)
}

// Well-known FB error codes the simulator emits.
const (
	// CodeInvalidParam mirrors FB error 100 (invalid parameter).
	CodeInvalidParam = 100
	// CodeRateLimit mirrors FB error 17 (user request limit reached).
	CodeRateLimit = 17
	// CodeAuth mirrors FB error 190 (invalid OAuth access token).
	CodeAuth = 190
	// CodeAccountDisabled mirrors FB error 368: the platform closed the
	// account (which happened to the authors days after the experiment,
	// §8.2).
	CodeAccountDisabled = 368
	// CodeServiceUnavailable mirrors FB error 2 (service temporarily
	// unavailable) — emitted as a 503 when no replica of the serving
	// backend answers; the message names the replicas.
	CodeServiceUnavailable = 2
)

// IsRateLimited reports whether err is the API's rate-limit error.
func IsRateLimited(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeRateLimit
}

// errorEnvelope is the JSON wrapper FB uses for errors.
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// ReachEstimate is the reachestimate endpoint's payload.
type ReachEstimate struct {
	Users         int64 `json:"users"`
	EstimateReady bool  `json:"estimate_ready"`
}

// reachResponse wraps ReachEstimate as the API returns it.
type reachResponse struct {
	Data ReachEstimate `json:"data"`
}

// The bytes around the user count in encoding/json's encoding of a ready
// reachResponse: the server appends every 200 answer between them, and the
// client scans them off.
const (
	reachAnswerHead = `{"data":{"users":`
	reachAnswerTail = `,"estimate_ready":true}}`
)

// appendReachAnswer appends the 200 body for a ready estimate of users,
// byte-identical to json.Marshal(reachResponse{...}).
func appendReachAnswer(dst []byte, users int64) []byte {
	dst = append(dst, reachAnswerHead...)
	dst = strconv.AppendInt(dst, users, 10)
	return append(dst, reachAnswerTail...)
}

// scan decodes body when it is exactly appendReachAnswer's encoding of some
// user count, and reports false — decoding nothing — for any other body,
// which the caller hands to encoding/json. Whenever it accepts, json.Unmarshal
// decodes the same response (FuzzReachAnswerScan).
func (r *reachResponse) scan(body []byte) bool {
	if len(body) < len(reachAnswerHead)+len(reachAnswerTail) ||
		string(body[:len(reachAnswerHead)]) != reachAnswerHead ||
		string(body[len(body)-len(reachAnswerTail):]) != reachAnswerTail {
		return false
	}
	digits := string(body[len(reachAnswerHead) : len(body)-len(reachAnswerTail)])
	users, err := strconv.ParseInt(digits, 10, 64)
	// ParseInt also takes a '+', leading zeros and "-0"; the encoding has
	// none of them.
	var canon [20]byte
	if err != nil || string(strconv.AppendInt(canon[:0], users, 10)) != digits {
		return false
	}
	r.Data = ReachEstimate{Users: users, EstimateReady: true}
	return true
}

// SearchResult is one row of the adinterest search endpoint.
type SearchResult struct {
	ID           string   `json:"id"`
	Name         string   `json:"name"`
	AudienceSize int64    `json:"audience_size"`
	Path         []string `json:"path"`
	Topic        string   `json:"topic"`
}

// searchResponse wraps search results.
type searchResponse struct {
	Data []SearchResult `json:"data"`
}

// CampaignParams creates a campaign.
type CampaignParams struct {
	Name string `json:"name"`
	// Objective mirrors FB campaign objectives; free-form here.
	Objective string `json:"objective"`
	// Status is "ACTIVE" or "PAUSED".
	Status string `json:"status"`
	// DailyBudgetCents is the daily budget in euro cents (the paper used
	// 70 €/day).
	DailyBudgetCents int64 `json:"daily_budget"`
	// Targeting is the audience definition.
	Targeting TargetingSpec `json:"targeting"`
}

// Campaign is a stored campaign record.
type Campaign struct {
	ID     string         `json:"id"`
	Params CampaignParams `json:"params"`
	// EstimatedReach is the floored Potential Reach at creation time.
	EstimatedReach int64 `json:"estimated_reach"`
	// NarrowAudienceWarning is set when the platform warns the audience is
	// too narrow (the paper hit this warning once across 21 campaigns).
	NarrowAudienceWarning bool `json:"narrow_audience_warning,omitempty"`
}

// Insights is the campaign dashboard report (§5.2's Table 2 columns).
type Insights struct {
	CampaignID  string  `json:"campaign_id"`
	Reach       int64   `json:"reach"`
	Impressions int64   `json:"impressions"`
	Clicks      int64   `json:"clicks"`
	SpendCents  int64   `json:"spend"`
	Currency    string  `json:"currency"`
	CPMCents    float64 `json:"cpm,omitempty"`
}

// marshalJSON is a helper with deterministic error wrapping.
func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("adsapi: marshal: %v", err)) // static types; cannot fail
	}
	return b
}
