package adsapi

import (
	"net/http"

	"nanotarget/internal/serving"
)

// AdmissionCost prices a Marketing API request for cost-based admission
// control (serving.AdmissionConfig.Cost): it reads the targeting_spec query
// parameter and returns serving.SpecCost — the predicted row-kernel work —
// so a 20-interest flexible-spec union costs its real backend work while a
// bare country probe costs the minimum.
//
// The spec is decoded with the handler's own strict decoder
// (unmarshalStrict), so a spec the handler answers is never priced at the
// floor. It is not validated against the era: a request whose spec is
// missing, malformed, or over era limits is priced at the 1-token floor,
// because the handler rejects it with a cheap 400 before any backend work
// happens — charging admission tokens for work that will not run would let
// garbage requests starve an account's budget for real ones.
func AdmissionCost(r *http.Request) float64 {
	raw := r.URL.Query().Get("targeting_spec")
	if raw == "" {
		return 1
	}
	var spec TargetingSpec
	if err := unmarshalStrict(raw, &spec); err != nil {
		return 1
	}
	clauses, err := spec.Clauses()
	if err != nil {
		return 1
	}
	return serving.SpecCost(spec.DemoFilter(), clauses)
}
