package adsapi

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nanotarget/internal/interest"
)

// specQuery is the raw query carrying rawSpec as its targeting_spec.
func specQuery(rawSpec string) string { return "targeting_spec=" + url.QueryEscape(rawSpec) }

// errorBody is the exact body the server writes for an API error.
func errorBody(code int, typ, message string) string {
	return string(marshalJSON(errorEnvelope{Error: &APIError{Code: code, Type: typ, Message: message, FBTraceID: "sim"}}))
}

// invalidParam is the exact 400 body for an invalid-parameter message.
func invalidParam(message string) string {
	return errorBody(CodeInvalidParam, "OAuthException", message)
}

// reachErrorCases is a table of reach-estimate requests the server refuses,
// each with its exact status and body. The first interest ID in spec order
// that fails — malformed or unknown to the catalog — is the one a 400 names,
// and the interest count is checked before any ID.
func reachErrorCases() []struct{ name, query, body string } {
	const (
		unknownID = "6000000999999" // parses, but names no catalog interest
		known     = "6000000000001"
	)
	clauses := func(ids ...string) string {
		var b strings.Builder
		for i, id := range ids {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"interests":[{"id":%q}]}`, id)
		}
		return `{"geo_locations":{"countries":["ES"]},"flexible_spec":[` + b.String() + `]}`
	}
	tooMany := make([]string, Era2017.MaxInterests+1)
	for i := range tooMany {
		tooMany[i] = FBInterestID(interest.ID(i + 1))
	}
	tooManyBad := append([]string{"abc"}, tooMany...)
	var countries51 []string
	for i := 0; i <= Era2017.MaxLocations; i++ {
		countries51 = append(countries51, "ES")
	}
	unknownCountry := `{"geo_locations":{"countries":["XX"]}}`
	valid := string(marshalJSON(ConjunctionSpec(es(), []interest.ID{1, 2, 3})))
	return []struct{ name, query, body string }{
		{"missing spec", "", invalidParam("Missing targeting_spec")},
		{"empty spec", "targeting_spec=", invalidParam("Missing targeting_spec")},
		{"spec key without value", "targeting_spec&x=1", invalidParam("Missing targeting_spec")},
		{"malformed JSON", specQuery("{not json"),
			invalidParam("Malformed targeting_spec: invalid character 'n' looking for beginning of object key string")},
		{"unknown field", specQuery(`{"geo_locations":{"countries":["ES"]},"bogus":1}`),
			invalidParam(`Malformed targeting_spec: json: unknown field "bogus"`)},
		{"trailing data", specQuery(valid + " x"), invalidParam("Malformed targeting_spec: trailing data after the JSON value")},
		{"empty location", specQuery(`{"geo_locations":{}}`),
			invalidParam("Invalid parameter: a location is required to define an audience")},
		{"no geo block", specQuery(`{}`),
			invalidParam("Invalid parameter: a location is required to define an audience")},
		{"worldwide in 2017", specQuery(`{"geo_locations":{"worldwide":true}}`),
			invalidParam("Invalid parameter: worldwide targeting is not available")},
		{"too many locations", specQuery(string(marshalJSON(TargetingSpec{GeoLocations: GeoLocations{Countries: countries51}}))),
			invalidParam("Invalid parameter: at most 50 locations allowed")},
		{"unknown country", specQuery(unknownCountry), invalidParam(`Invalid parameter: unknown country "XX"`)},
		{"unknown country after a known one", specQuery(`{"geo_locations":{"countries":["ES","ZZ"]}}`),
			invalidParam(`Invalid parameter: unknown country "ZZ"`)},
		{"bad gender", specQuery(`{"geo_locations":{"countries":["ES"]},"genders":[1,3]}`), invalidParam("Invalid parameter: gender 3")},
		{"inverted ages", specQuery(`{"geo_locations":{"countries":["ES"]},"age_min":40,"age_max":20}`),
			invalidParam("Invalid parameter: age range")},
		{"negative age", specQuery(`{"geo_locations":{"countries":["ES"]},"age_min":-1}`),
			invalidParam("Invalid parameter: age range")},
		{"too many interests", specQuery(clauses(tooMany...)), invalidParam("Invalid parameter: at most 25 interests allowed")},
		{"too many interests, one malformed", specQuery(clauses(tooManyBad...)),
			invalidParam("Invalid parameter: at most 25 interests allowed")},
		{"unknown interest", specQuery(clauses(known, unknownID)),
			invalidParam("Invalid parameter: unknown interest " + unknownID)},
		{"malformed interest", specQuery(clauses(known, "abc")), invalidParam(`adsapi: malformed interest id "abc"`)},
		{"non-canonical interest", specQuery(clauses("06000000000001")),
			invalidParam(`adsapi: malformed interest id "06000000000001"`)},
		{"interest out of range", specQuery(clauses("7000000000000")),
			invalidParam(`adsapi: interest id "7000000000000" out of range`)},
		{"unknown before malformed", specQuery(clauses(known, unknownID, "abc")),
			invalidParam("Invalid parameter: unknown interest " + unknownID)},
		{"malformed before unknown", specQuery(clauses(known, "abc", unknownID)),
			invalidParam(`adsapi: malformed interest id "abc"`)},
		{"unknown before malformed in one clause",
			specQuery(`{"geo_locations":{"countries":["ES"]},"flexible_spec":[{"interests":[{"id":"` + known + `"},{"id":"` + unknownID + `"},{"id":"abc"}]}]}`),
			invalidParam("Invalid parameter: unknown interest " + unknownID)},
		{"malformed before unknown in one clause",
			specQuery(`{"geo_locations":{"countries":["ES"]},"flexible_spec":[{"interests":[{"id":"abc"},{"id":"` + unknownID + `"}]}]}`),
			invalidParam(`adsapi: malformed interest id "abc"`)},
		{"unknown interest after empty clauses",
			specQuery(`{"geo_locations":{"countries":["ES"]},"flexible_spec":[{},{"interests":[]},{"interests":[{"id":"` + unknownID + `"}]}]}`),
			invalidParam("Invalid parameter: unknown interest " + unknownID)},
		{"unknown interest outside the fast subset",
			specQuery(`{"geo_locations":{"countries":["E\u0053"]},"flexible_spec":[{"interests":[{"id":"` + unknownID + `"}]}]}`),
			invalidParam("Invalid parameter: unknown interest " + unknownID)},
		// Query syntax: the edge reads targeting_spec exactly as
		// url.ParseQuery does.
		{"escaped key", "targeting%5Fspec=" + url.QueryEscape(unknownCountry), invalidParam(`Invalid parameter: unknown country "XX"`)},
		{"first value wins", specQuery(unknownCountry) + "&" + specQuery(valid), invalidParam(`Invalid parameter: unknown country "XX"`)},
		{"pair with a semicolon dropped", "targeting_spec=" + url.QueryEscape(valid) + ";x&" + specQuery(unknownCountry),
			invalidParam(`Invalid parameter: unknown country "XX"`)},
		{"pair with a bad escape dropped", "targeting_spec=%zz&" + specQuery(unknownCountry),
			invalidParam(`Invalid parameter: unknown country "XX"`)},
		{"key with a bad escape dropped", "targeting%zzspec=" + url.QueryEscape(valid) + "&" + specQuery(unknownCountry),
			invalidParam(`Invalid parameter: unknown country "XX"`)},
		{"plus is a space", specQuery(`{"geo_locations": {}}`),
			invalidParam("Invalid parameter: a location is required to define an audience")},
		{"only dropped pairs", "targeting_spec=%zz&targeting_spec=" + url.QueryEscape(valid) + ";", invalidParam("Missing targeting_spec")},
	}
}

// TestReachEstimateErrorBodies pins the status and the exact body of every
// refused reach estimate in reachErrorCases, served bare and behind
// AdmissionCost-priced admission.
func TestReachEstimateErrorBodies(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	for _, tc := range reachErrorCases() {
		t.Run(tc.name, func(t *testing.T) {
			u := "/" + APIVersion + "/act_1/reachestimate?" + tc.query
			rec := serveBareAndAdmitted(t, srv, u)
			if rec.Code != http.StatusBadRequest || rec.Body.String() != tc.body {
				t.Fatalf("HTTP %d %s\nwant HTTP 400 %s", rec.Code, rec.Body, tc.body)
			}
		})
	}
}

// TestEdgeQueryToken: the edge reads access_token from the raw query as
// url.ParseQuery does — escaped keys and values, '+' as a space, the first
// valid value — and a token it does not accept gets the exact 401 body.
func TestEdgeQueryToken(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{Tokens: []string{"open sesame"}})
	spec := specQuery(string(marshalJSON(ConjunctionSpec(es(), []interest.ID{1}))))
	unauthorized := errorBody(CodeAuth, "OAuthException", "Invalid OAuth access token")
	for _, tc := range []struct {
		query string
		ok    bool
	}{
		{"access_token=open+sesame&" + spec, true},
		{spec + "&access_token=open%20sesame", true},
		{"access%5Ftoken=%6Fpen+sesame&" + spec, true},
		{"access_token=%zz&access_token=open+sesame&" + spec, true},
		{"access_token=open+sesame;&access_token=open+sesame&" + spec, true},
		{"access_token=wrong&access_token=open+sesame&" + spec, false},
		{"access_token=open+sesame;&" + spec, false},
		{"access_token=open%2Bsesame&" + spec, false},
		{spec, false},
	} {
		rec := serveBareAndAdmitted(t, srv, "/"+APIVersion+"/act_1/reachestimate?"+tc.query)
		if tc.ok {
			users, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(rec.Body.String(), `{"data":{"users":`), `,"estimate_ready":true}}`), 10, 64)
			if rec.Code != http.StatusOK || err != nil ||
				rec.Body.String() != string(marshalJSON(reachResponse{Data: ReachEstimate{Users: users, EstimateReady: true}})) {
				t.Errorf("%s: HTTP %d %s, want a 200 reach answer", tc.query, rec.Code, rec.Body)
			}
		} else if rec.Code != http.StatusUnauthorized || rec.Body.String() != unauthorized {
			t.Errorf("%s: HTTP %d %s, want HTTP 401 %s", tc.query, rec.Code, rec.Body, unauthorized)
		}
	}
}

// cannedTransport answers every request with one fixed 200 body and records
// each request URL, so the client half of a reach estimate runs without a
// server.
type cannedTransport struct {
	body string
	mu   sync.Mutex
	urls []string
}

func (c *cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.urls = append(c.urls, r.URL.String())
	c.mu.Unlock()
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(c.body)),
		Request:    r,
	}, nil
}

// sent returns and forgets the recorded request URLs.
func (c *cannedTransport) sent() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	urls := c.urls
	c.urls = nil
	return urls
}

// TestSourceReachURLBytes pins the URL Source.PotentialReach sends to the
// one ReachEstimate's url.Values encoding builds for the same conjunction,
// over random geo blocks (country strings JSON or the query must escape
// included), random interest lists, tokens that need escaping and base URLs
// with and without a trailing slash.
func TestSourceReachURLBytes(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	alphabet := []string{"E", "S", "U", "s", " ", "&", "=", "+", "%", "\"", "\\", "<", ">", "é", " ", "\xff", "\x01", "/", "?", "#"}
	randString := func(n int) string {
		var b strings.Builder
		for range n {
			b.WriteString(alphabet[r.IntN(len(alphabet))])
		}
		return b.String()
	}
	transport := &cannedTransport{body: `{"data":{"users":1234,"estimate_ready":true}}`}
	bases := []string{"http://127.0.0.1:8080", "http://127.0.0.1:8080/", "http://api.example/graph/"}
	tokens := []string{"", "sesame", "a b&c=d/é%+?"}
	for trial := range 300 {
		c, err := NewClient(ClientConfig{
			BaseURL:     bases[trial%len(bases)],
			AccessToken: tokens[trial/len(bases)%len(tokens)],
			AccountID:   strconv.Itoa(r.IntN(1000)),
			HTTPClient:  &http.Client{Transport: transport},
		})
		if err != nil {
			t.Fatal(err)
		}
		geo := GeoLocations{Worldwide: r.IntN(3) == 0}
		for range r.IntN(6) {
			geo.Countries = append(geo.Countries, randString(r.IntN(4)))
		}
		if trial%7 == 0 {
			geo.Countries = []string{} // empty, not nil: omitted all the same
		}
		src := &Source{Client: c, Geo: geo}
		for range 3 {
			ids := make([]interest.ID, r.IntN(30))
			for i := range ids {
				switch r.IntN(4) {
				case 0:
					ids[i] = interest.ID(r.IntN(10))
				case 1:
					ids[i] = math.MaxUint32 - interest.ID(r.IntN(10))
				default:
					ids[i] = interest.ID(r.Uint32())
				}
			}
			if users, err := src.PotentialReach(ids); err != nil || users != 1234 {
				t.Fatalf("PotentialReach = %d, %v", users, err)
			}
			want := c.endpoint("/act_"+c.cfg.AccountID+"/reachestimate",
				url.Values{"targeting_spec": {string(marshalJSON(ConjunctionSpec(geo, ids)))}})
			if got := transport.sent(); len(got) != 1 || got[0] != want {
				t.Fatalf("geo %#v, ids %v, token %q: Source sent %q\nwant %q", geo, ids, c.cfg.AccessToken, got, want)
			}
		}
	}
}

// TestAccountDisabledInFlight disables the account while a flood of reach
// estimates is in flight: every request answers 200 or the exact 403 body,
// and once DisableAccount returns no request is admitted.
func TestAccountDisabledInFlight(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	u := reachURL(string(marshalJSON(ConjunctionSpec(es(), []interest.ID{1, 2}))))
	disabledBody := errorBody(CodeAccountDisabled, "OAuthException", "The account has been disabled")
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
		return rec
	}
	var (
		wg       sync.WaitGroup
		answered atomic.Int64
		stop     atomic.Bool
		errs     = make(chan error, 4)
	)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := serve()
				switch {
				case rec.Code == http.StatusOK:
					answered.Add(1)
				case rec.Code == http.StatusForbidden && rec.Body.String() == disabledBody:
				default:
					errs <- fmt.Errorf("HTTP %d %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	for answered.Load() < 20 {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		if rec := serve(); rec.Code != http.StatusOK {
			t.Fatalf("before disabling: HTTP %d %s", rec.Code, rec.Body)
		}
	}
	srv.DisableAccount()
	for range 20 {
		if rec := serve(); rec.Code != http.StatusForbidden || rec.Body.String() != disabledBody {
			t.Fatalf("after DisableAccount: HTTP %d %s, want HTTP 403 %s", rec.Code, rec.Body, disabledBody)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSourceConcurrentFirstCalls: goroutines that race into a fresh
// Source's first queries all send the exact URL ReachEstimate builds (run
// with -race: the prefix is built once and shared).
func TestSourceConcurrentFirstCalls(t *testing.T) {
	transport := &cannedTransport{body: `{"data":{"users":20,"estimate_ready":true}}`}
	c, err := NewClient(ClientConfig{BaseURL: "http://127.0.0.1:8080/", AccessToken: "t&k", HTTPClient: &http.Client{Transport: transport}})
	if err != nil {
		t.Fatal(err)
	}
	src := &Source{Client: c, Geo: top50()}
	want := map[string]bool{}
	var wg sync.WaitGroup
	for g := range 8 {
		ids := []interest.ID{interest.ID(g), interest.ID(g + 100)}
		want[c.endpoint("/act_1/reachestimate", url.Values{"targeting_spec": {string(marshalJSON(ConjunctionSpec(top50(), ids)))}})] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			if users, err := src.PotentialReach(ids); err != nil || users != 20 {
				t.Errorf("PotentialReach(%v) = %d, %v", ids, users, err)
			}
		}()
	}
	wg.Wait()
	sent := transport.sent()
	for _, u := range sent {
		if !want[u] {
			t.Errorf("sent %q, not one of the URLs ReachEstimate builds", u)
		}
		delete(want, u)
	}
	if len(sent) != 8 || len(want) != 0 {
		t.Fatalf("sent %d URLs; %d expected URLs never sent", len(sent), len(want))
	}
}
