package adsapi

import (
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

// TestAdmissionCostPricing pins AdmissionCost's contract: a request the
// handler will reject cheaply (missing/malformed/unknown-ID spec) is priced
// at the 1-token floor, and a valid spec is priced at its SpecCost.
func TestAdmissionCostPricing(t *testing.T) {
	price := func(query string) float64 {
		u := "/" + APIVersion + "/act_1/reachestimate"
		if query != "" {
			u += "?targeting_spec=" + url.QueryEscape(query)
		}
		return AdmissionCost(httptest.NewRequest(http.MethodGet, u, nil))
	}
	if got := price(""); got != 1 {
		t.Fatalf("missing spec priced %v, want the 1-token floor", got)
	}
	if got := price("{not json"); got != 1 {
		t.Fatalf("malformed spec priced %v, want the 1-token floor", got)
	}
	// A spec that parses but cannot convert to clauses (bad FB interest ID)
	// dies in the handler's 400 path — floor too.
	bad := `{"geo_locations":{"countries":["ES"]},"flexible_spec":[{"interests":[{"id":"abc","name":"x"}]}]}`
	if got := price(bad); got != 1 {
		t.Fatalf("unconvertible spec priced %v, want the 1-token floor", got)
	}
	// A valid conjunction is priced at its kernel work: 1 base + 1 country
	// term + 3 singleton-clause row passes.
	spec := ConjunctionSpec(es(), []interest.ID{1, 2, 3})
	if got := price(string(marshalJSON(spec))); got != 5 {
		t.Fatalf("3-interest conjunction priced %v, want 5", got)
	}
}

// TestTrailingSpecDataRejected: a valid spec followed by anything but
// whitespace is a 400 Malformed targeting_spec, and admission prices it at
// the floor — the handler and AdmissionCost decode the same way. Before the
// strict decoder read past the first value, such a spec was answered 200
// while admission charged it 1 token instead of its SpecCost of 5.
func TestTrailingSpecDataRejected(t *testing.T) {
	_, ts := testServer(t, ServerConfig{})
	spec := string(marshalJSON(ConjunctionSpec(es(), []interest.ID{1, 2, 3})))
	for _, tail := range []string{"", " \n", " trailing", `{"x":1}`, "}"} {
		raw := spec + tail
		u := "/" + APIVersion + "/act_1/reachestimate?targeting_spec=" + url.QueryEscape(raw)
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cost := AdmissionCost(httptest.NewRequest(http.MethodGet, u, nil))
		if strings.TrimSpace(tail) == "" {
			if resp.StatusCode != http.StatusOK || cost != 5 {
				t.Fatalf("tail %q: status %d, cost %v; want 200 priced 5 (%s)", tail, resp.StatusCode, cost, body)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "Malformed targeting_spec") {
			t.Fatalf("tail %q: status %d body %s, want 400 Malformed targeting_spec", tail, resp.StatusCode, body)
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
