package adsapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nanotarget/internal/geo"
	"nanotarget/internal/interest"
	"nanotarget/internal/serving"
)

// BenchmarkReachEstimateEdge measures one reach estimate through the API
// edge as fbadsd serves it with -admit-rate: AdmissionCost-priced admission
// in front of the server, over a LocalBackend, for the paper's 18-interest
// conjunction in one country. The audience cache answers every timed
// request, so the loop is the edge's own work — query and spec parsing,
// admission, auth, validation and response encoding. CI gates its allocs/op
// (make bench-allocs).
func BenchmarkReachEstimateEdge(b *testing.B) {
	benchmarkReachEstimateEdge(b, es())
}

// BenchmarkReachEstimateEdgeTop50 is BenchmarkReachEstimateEdge for the spec
// the Table 1 study sends: the same conjunction over the top-50 country list.
func BenchmarkReachEstimateEdgeTop50(b *testing.B) {
	benchmarkReachEstimateEdge(b, top50())
}

func benchmarkReachEstimateEdge(b *testing.B, geo GeoLocations) {
	srv, err := NewServer(ServerConfig{Backend: localBackend(b, testModel(b))})
	if err != nil {
		b.Fatal(err)
	}
	front := serving.NewAdmission(serving.AdmissionConfig{Rate: 1e9, Cost: AdmissionCost}, srv)
	u := reachURL(string(marshalJSON(ConjunctionSpec(geo, benchIDs()))))
	serve := func() {
		rec := httptest.NewRecorder()
		front.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	// Warm the audience cache and the account's admission bucket, so even a
	// one-iteration run measures the steady state.
	serve()
	for b.Loop() {
		serve()
	}
}

// BenchmarkSourceReachURL measures the client half of one Table 1 reach
// estimate: Source.PotentialReach for the 18-interest conjunction over the
// top-50 country list — building the request URL, sending it through a
// transport that answers at once with a canned reach body, and decoding the
// answer. No server or socket runs.
func BenchmarkSourceReachURL(b *testing.B) {
	const body = `{"data":{"users":1234,"estimate_ready":true}}`
	c, err := NewClient(ClientConfig{
		BaseURL: "http://127.0.0.1:8080",
		HTTPClient: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(body)), Request: r}, nil
		})},
	})
	if err != nil {
		b.Fatal(err)
	}
	src := &Source{Client: c, Geo: top50(), MinReach: Era2017.MinReach}
	ids := benchIDs()
	for b.Loop() {
		if users, err := src.PotentialReach(ids); err != nil || users != 1234 {
			b.Fatalf("PotentialReach = %d, %v", users, err)
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// benchIDs is the paper's 18-interest conjunction.
func benchIDs() []interest.ID {
	ids := make([]interest.ID, 18)
	for i := range ids {
		ids[i] = interest.ID(i + 1)
	}
	return ids
}

// top50 is the location block of every Table 1 query: the top-50 countries.
func top50() GeoLocations {
	var g GeoLocations
	for _, c := range geo.Top50() {
		g.Countries = append(g.Countries, c.Code)
	}
	return g
}
