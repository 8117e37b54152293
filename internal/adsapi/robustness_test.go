package adsapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/serving"
	"nanotarget/internal/worldcfg"
)

// serveBareAndAdmitted serves GET u through srv alone and through srv behind
// AdmissionCost-priced admission, and fails unless both answer with the same
// status and a byte-identical body: sharing the admission parse with the
// handler must not change an answer or an error.
func serveBareAndAdmitted(t *testing.T, srv *Server, u string) *httptest.ResponseRecorder {
	t.Helper()
	bare := httptest.NewRecorder()
	srv.ServeHTTP(bare, httptest.NewRequest(http.MethodGet, u, nil))
	admitted := httptest.NewRecorder()
	front := serving.NewAdmission(serving.AdmissionConfig{Rate: 1e9, Cost: AdmissionCost}, srv)
	front.ServeHTTP(admitted, httptest.NewRequest(http.MethodGet, u, nil))
	if bare.Code != admitted.Code || !bytes.Equal(bare.Body.Bytes(), admitted.Body.Bytes()) {
		t.Fatalf("%s: bare server HTTP %d %s, behind admission HTTP %d %s",
			u, bare.Code, bare.Body, admitted.Code, admitted.Body)
	}
	return bare
}

// reachURL is the reach-estimate path for a raw targeting_spec ("" omits it).
func reachURL(rawSpec string) string {
	u := "/" + APIVersion + "/act_1/reachestimate"
	if rawSpec != "" {
		u += "?targeting_spec=" + url.QueryEscape(rawSpec)
	}
	return u
}

// admissionCase is one row of the admission-pricing corpus: a raw
// targeting_spec, its admission price, and the answer's status and a
// substring of its body.
type admissionCase struct {
	name, spec string
	cost       float64
	status     int
	message    string // substring of the answer body
}

// admissionCostCorpus is TestAdmissionCostPricing's table, which also seeds
// FuzzTargetingSpecFastPath.
func admissionCostCorpus() []admissionCase {
	conj := string(marshalJSON(ConjunctionSpec(es(), []interest.ID{1, 2, 3})))
	tooMany := make([]interest.ID, Era2017.MaxInterests+1)
	for i := range tooMany {
		tooMany[i] = interest.ID(i + 1)
	}
	manyGeo := GeoLocations{}
	for i := 0; i <= Era2017.MaxLocations; i++ {
		manyGeo.Countries = append(manyGeo.Countries, "ES")
	}
	return []admissionCase{
		// 1 base + 1 country term + 3 singleton-clause row passes.
		{"conjunction", conj, 5, http.StatusOK, `"users":`},
		// 1 base + 1 country + (2 rows + 1 fold) + 1 row.
		{"union", `{"geo_locations":{"countries":["ES"]},"flexible_spec":[{"interests":[{"id":"6000000000001"},{"id":"6000000000002"}]},{"interests":[{"id":"6000000000003"}]}]}`,
			6, http.StatusOK, `"users":`},
		{"missing", "", 1, http.StatusBadRequest, "Missing targeting_spec"},
		{"malformed", "{not json", 1, http.StatusBadRequest, "Malformed targeting_spec"},
		{"trailing data", conj + " trailing", 1, http.StatusBadRequest, "Malformed targeting_spec"},
		{"unknown field", `{"geo_locations":{"countries":["ES"]},"bogus":1}`, 1, http.StatusBadRequest,
			"Malformed targeting_spec: json: unknown field"},
		{"too many interests", string(marshalJSON(ConjunctionSpec(es(), tooMany))),
			2 + float64(len(tooMany)), http.StatusBadRequest, "at most 25 interests allowed"},
		{"too many locations", string(marshalJSON(TargetingSpec{GeoLocations: manyGeo})), 2,
			http.StatusBadRequest, "at most 50 locations allowed"},
		{"unknown country", `{"geo_locations":{"countries":["XX"]}}`, 2, http.StatusBadRequest,
			`unknown country \"XX\"`},
		// Specs that decode but cannot convert to clauses die in the
		// handler's 400 path — floor too.
		{"non-canonical interest id", `{"geo_locations":{"countries":["ES"]},"flexible_spec":[{"interests":[{"id":"06000000000001"}]}]}`,
			1, http.StatusBadRequest, "malformed interest id"},
		{"garbage interest id", `{"geo_locations":{"countries":["ES"]},"flexible_spec":[{"interests":[{"id":"abc","name":"x"}]}]}`,
			1, http.StatusBadRequest, "malformed interest id"},
	}
}

// TestAdmissionCostPricing pins AdmissionCost's contract over a corpus of
// answered and rejected specs: a request the handler rejects before any
// backend work (missing/malformed/unconvertible spec) is priced at the
// 1-token floor, any other spec at its SpecCost — the era is not checked
// while pricing — and every request is answered byte-identically with and
// without admission in front.
func TestAdmissionCostPricing(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	for _, tc := range admissionCostCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			u := reachURL(tc.spec)
			if got, _ := AdmissionCost(httptest.NewRequest(http.MethodGet, u, nil)); got != tc.cost {
				t.Fatalf("priced %v, want %v", got, tc.cost)
			}
			rec := serveBareAndAdmitted(t, srv, u)
			if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.message) {
				t.Fatalf("HTTP %d %s, want %d containing %q", rec.Code, rec.Body, tc.status, tc.message)
			}
		})
	}
}

// TestAdmissionParseServesPricedSpec: the handler answers from the parse
// AdmissionCost attached and never decodes the query again. Rewriting the
// priced request's query to another valid spec does not change the answer:
// the server still estimates the spec that was priced, whether it is handed
// the priced request directly or through Admission.
func TestAdmissionParseServesPricedSpec(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	priced := string(marshalJSON(ConjunctionSpec(es(), []interest.ID{1, 2, 3})))
	other := string(marshalJSON(ConjunctionSpec(es(), []interest.ID{4})))
	answer := func(rawSpec string) string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, reachURL(rawSpec), nil))
		return rec.Body.String()
	}
	want, otherAnswer := answer(priced), answer(other)
	if want == otherAnswer {
		t.Fatalf("both specs answer %s; the rewrite would go unseen", want)
	}
	// priceThenRewrite prices r, then points the returned request's query
	// at the other spec.
	priceThenRewrite := func(r *http.Request) (float64, *http.Request) {
		cost, r := AdmissionCost(r)
		if cost != 5 {
			t.Errorf("priced %v, want 5", cost)
		}
		r.URL.RawQuery = "targeting_spec=" + url.QueryEscape(other)
		return cost, r
	}
	front := serving.NewAdmission(serving.AdmissionConfig{Rate: 1e9, Cost: priceThenRewrite}, srv)
	for _, via := range []string{"direct", "admission"} {
		req := httptest.NewRequest(http.MethodGet, reachURL(priced), nil)
		rec := httptest.NewRecorder()
		if via == "direct" {
			_, r := priceThenRewrite(req)
			srv.ServeHTTP(rec, r)
		} else {
			front.ServeHTTP(rec, req)
		}
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("%s: rewritten request answered HTTP %d %s, want the priced spec's %s (the other spec answers %s)",
				via, rec.Code, rec.Body, want, otherAnswer)
		}
	}
}

// TestTrailingSpecDataRejected: a valid spec followed by anything but
// whitespace is a 400 Malformed targeting_spec, and admission prices it at
// the floor — the handler and AdmissionCost share one strict decode. Before
// the strict decoder read past the first value, such a spec was answered
// 200 while admission charged it 1 token instead of its SpecCost of 5.
func TestTrailingSpecDataRejected(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	spec := string(marshalJSON(ConjunctionSpec(es(), []interest.ID{1, 2, 3})))
	for _, tail := range []string{"", " \n", " trailing", `{"x":1}`, "}"} {
		u := reachURL(spec + tail)
		rec := serveBareAndAdmitted(t, srv, u)
		cost, _ := AdmissionCost(httptest.NewRequest(http.MethodGet, u, nil))
		if strings.TrimSpace(tail) == "" {
			if rec.Code != http.StatusOK || cost != 5 {
				t.Fatalf("tail %q: status %d, cost %v; want 200 priced 5 (%s)", tail, rec.Code, cost, rec.Body)
			}
			continue
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "Malformed targeting_spec") {
			t.Fatalf("tail %q: status %d body %s, want 400 Malformed targeting_spec", tail, rec.Code, rec.Body)
		}
		if cost != 1 {
			t.Fatalf("tail %q: rejected spec priced %v, want the 1-token floor", tail, cost)
		}
	}
}

// errBackend serves catalog/population from a real backend but fails every
// reach estimate with a configured error — the shapes a dead topology or a
// deadline blowing mid-estimate produce.
type errBackend struct {
	serving.ReachBackend
	err error
}

func (b *errBackend) ReachShares(context.Context, population.DemoFilter, [][]interest.ID) (float64, float64, error) {
	return 0, 0, b.err
}

// TestServerMapsBackendErrors: the HTTP tier maps each backend failure to its
// FB error envelope — an unservable topology is a 503 naming the down
// shards, an expired deadline is the caller's budget running out (504) and a
// bare cancel is the caller leaving (503) — identically on both endpoints
// that estimate reach: GET reachestimate and POST campaigns. A campaign whose
// estimate failed is not stored.
func TestServerMapsBackendErrors(t *testing.T) {
	model := testModel(t)
	local, err := serving.NewLocalBackend(model, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		err     error
		status  int
		message string
	}{
		{"deadline", &serving.CanceledError{Err: context.DeadlineExceeded}, http.StatusGatewayTimeout,
			"Request deadline exceeded before the estimate completed"},
		{"cancel", &serving.CanceledError{Err: context.Canceled}, http.StatusServiceUnavailable,
			"Request canceled before the estimate completed"},
		{"unavailable", &serving.UnavailableError{Down: []string{"http://a", "http://b"}}, http.StatusServiceUnavailable,
			"Service temporarily unavailable: 2 shard(s) down: http://a, http://b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(ServerConfig{Backend: &errBackend{ReachBackend: local, err: tc.err}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			spec := ConjunctionSpec(es(), []interest.ID{1})
			reachStatus, reachBody := rawReach(t, ts.URL, spec)
			form := url.Values{"params": {string(marshalJSON(CampaignParams{Name: "c", Targeting: spec}))}}
			resp, err := http.PostForm(ts.URL+"/"+APIVersion+"/act_1/campaigns", form)
			if err != nil {
				t.Fatal(err)
			}
			campaignBody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				endpoint string
				status   int
				body     []byte
			}{
				{"reachestimate", reachStatus, reachBody},
				{"campaigns", resp.StatusCode, campaignBody},
			} {
				if got.status != tc.status {
					t.Fatalf("%s: HTTP %d, want %d (%s)", got.endpoint, got.status, tc.status, got.body)
				}
				var env errorEnvelope
				if err := json.Unmarshal(got.body, &env); err != nil || env.Error == nil {
					t.Fatalf("%s: body %s is not an error envelope (%v)", got.endpoint, got.body, err)
				}
				if env.Error.Code != CodeServiceUnavailable || env.Error.Type != "ApiUnknownException" {
					t.Fatalf("%s: error envelope %+v", got.endpoint, env.Error)
				}
				if env.Error.Message != tc.message {
					t.Fatalf("%s: message %q, want %q", got.endpoint, env.Error.Message, tc.message)
				}
			}
			if string(reachBody) != string(campaignBody) {
				t.Fatalf("endpoints disagree: reachestimate %s, campaigns %s", reachBody, campaignBody)
			}
			if n := len(srv.Campaigns()); n != 0 {
				t.Fatalf("%d campaign(s) stored after a failed estimate", n)
			}
		})
	}
}

// TestProxySessionGoroutineCleanup is the end-to-end leak regression: a full
// serving session — shard servers, health-probing proxy, Marketing API tier,
// client traffic — torn down in order returns the process to its goroutine
// baseline. Guards the probe loop, the fan-out workers, and the per-request
// context plumbing against leaked goroutines.
func TestProxySessionGoroutineCleanup(t *testing.T) {
	cfg := worldcfg.Default()
	cfg.Population.Seed = 3
	cfg.Population.CatalogSize = 500
	cfg.Population.Population = 100_001
	cfg.Population.ActivityGrid = 32

	urls := make([]string, 2)
	for i := range urls {
		b, info, err := serving.NewShardBackend(cfg, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := serving.NewShardServer(b, info)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(shard)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}

	// Keep-alives on either hop would park idle-connection goroutines past
	// the teardown and fail the baseline comparison.
	noKeepAlive := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	baseline := runtime.NumGoroutine()

	proxy, err := serving.NewProxyBackend(cfg, serving.ProxyConfig{
		URLs: urls, ProbeInterval: 5 * time.Millisecond, Client: noKeepAlive,
	})
	if err != nil {
		t.Fatal(err)
	}
	healthCtx, stopHealth := context.WithCancel(context.Background())
	proxy.StartHealth(healthCtx)

	api, err := NewServer(ServerConfig{Backend: proxy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api)

	spec := ConjunctionSpec(es(), []interest.ID{1, 2})
	u := ts.URL + "/" + APIVersion + "/act_1/reachestimate?targeting_spec=" +
		url.QueryEscape(string(marshalJSON(spec)))
	for i := 0; i < 3; i++ {
		resp, err := noKeepAlive.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if st := proxy.HealthStats(); st.Up != 2 {
		t.Fatalf("topology not healthy mid-session: %+v", st)
	}

	// Teardown in dependency order; every goroutine above the pre-proxy
	// baseline must drain.
	stopHealth()
	ts.Close()
	noKeepAlive.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive 5s after teardown, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
