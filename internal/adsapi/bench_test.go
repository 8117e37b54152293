package adsapi

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/serving"
)

// BenchmarkReachEstimateEdge measures one reach estimate through the API
// edge as fbadsd serves it with -admit-rate: AdmissionCost-priced admission
// in front of the server, over a LocalBackend, for the paper's 18-interest
// conjunction. The audience cache answers every timed request, so the loop
// is the edge's own work — query and spec parsing, admission, auth and
// response encoding. CI gates its allocs/op (bench-smoke).
func BenchmarkReachEstimateEdge(b *testing.B) {
	srv, err := NewServer(ServerConfig{Backend: localBackend(b, testModel(b))})
	if err != nil {
		b.Fatal(err)
	}
	front := serving.NewAdmission(serving.AdmissionConfig{Rate: 1e9, Cost: AdmissionCost}, srv)
	ids := make([]interest.ID, 18)
	for i := range ids {
		ids[i] = interest.ID(i + 1)
	}
	u := reachURL(string(marshalJSON(ConjunctionSpec(es(), ids))))
	serve := func() {
		rec := httptest.NewRecorder()
		front.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	// Warm the audience cache and the account's admission bucket, so even
	// CI's one-iteration run measures the steady state.
	serve()
	for b.Loop() {
		serve()
	}
}
