package adsapi

import (
	"net/http"

	"nanotarget/internal/serving"
)

// AdmissionCost prices a Marketing API request for cost-based admission
// control (serving.AdmissionConfig.Cost): it returns serving.SpecCost of the
// targeting_spec query parameter — the predicted row-kernel work — so a
// 20-interest flexible-spec union costs its real backend work while a bare
// country probe costs the minimum.
//
// Pricing and the handler share one parse: AdmissionCost parses the query
// and strict-decodes the spec once (parseEdge) and returns the request
// carrying that parse, which is the request the server must receive; the
// server answers from it without decoding again. A spec that is missing,
// malformed or does not convert to clauses is priced at the 1-token floor,
// because the handler rejects it with a cheap 400 before any backend work
// happens — charging admission tokens for work that will not run would let
// garbage requests starve an account's budget for real ones. The era is not
// checked here, so a spec over the era's limits is priced at its SpecCost.
func AdmissionCost(r *http.Request) (float64, *http.Request) {
	p, r := parseEdge(r)
	if p.specErr != nil || p.clausesErr != nil {
		return 1, r
	}
	return serving.SpecCost(p.demo, p.clauses), r
}
