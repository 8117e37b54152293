package population

import (
	"math"

	"nanotarget/internal/dist"
	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
)

// DemoFilter narrows an audience by demographic attributes, mirroring the
// non-interest targeting attributes of the FB Ads Manager (§2.1). The zero
// value matches everyone (worldwide, all genders, all ages).
type DemoFilter struct {
	// Countries holds ISO codes; empty (or containing geo.Worldwide) means
	// no geographic restriction.
	Countries []string
	// Genders restricts by declared gender; empty means all.
	Genders []Gender
	// AgeMin and AgeMax bound age inclusively; zero means unbounded.
	AgeMin, AgeMax int
}

// Share returns the fraction of the population matched by the filter,
// assuming demographic attributes are independent of each other (a modeling
// simplification documented in DESIGN.md).
func (m *Model) DemoShare(f DemoFilter) float64 {
	return m.geoPopulationShare(f.Countries) *
		m.demo.genderShare(f.Genders) *
		m.demo.ageShare(f.AgeMin, f.AgeMax)
}

// Query accumulates an interest conjunction and evaluates its audience share
// incrementally. Adding an interest multiplies the per-grid-point survival
// product, so building a 25-interest prefix costs 25 O(grid) updates —
// this is what makes the uniqueness study's 120k audience evaluations cheap.
//
// A Query is not safe for concurrent use. Clone before branching.
type Query struct {
	m       *Model
	partial []float64 // ∏ q(t_k, λ_i) over added interests, per grid point
	n       int
}

// NewQuery starts an empty conjunction (matching everyone).
func (m *Model) NewQuery() *Query {
	q := &Query{m: m, partial: make([]float64, len(m.actT))}
	for i := range q.partial {
		q.partial[i] = 1
	}
	return q
}

// And narrows the conjunction with one more interest and returns the query.
//
// With the row kernel enabled (the default) the survivor update is a
// contiguous multiply loop over the interest's interned row: the factor
// 1 − e equals the legacy 1 − exp(−t·λ) bit for bit because the row holds
// exactly the exp the legacy loop computed inline (see rows.go).
func (q *Query) And(id interest.ID) *Query {
	if row := q.m.row(id); row != nil {
		p := q.partial[:len(row)]
		for k, e := range row {
			p[k] *= 1 - e
		}
	} else {
		lambda := q.m.lambda[id]
		for k, t := range q.m.actT {
			q.partial[k] *= 1 - math.Exp(-t*lambda)
		}
	}
	q.n++
	return q
}

// Len returns the number of interests in the conjunction.
func (q *Query) Len() int { return q.n }

// Share returns E_t[∏ q(t, λᵢ)], the fraction of the (unfiltered) user base
// holding every interest added so far. An empty conjunction has share 1.
func (q *Query) Share() float64 {
	s := 0.0
	for k, p := range q.m.actP {
		s += p * q.partial[k]
	}
	return s
}

// Clone returns an independent copy of the query state.
func (q *Query) Clone() *Query {
	cp := &Query{m: q.m, partial: make([]float64, len(q.partial)), n: q.n}
	copy(cp.partial, q.partial)
	return cp
}

// Survivors returns a copy of the per-grid-point survivor products — the
// complete evaluation state of the conjunction built so far. A caller can
// store it and later rebuild the query with Model.ResumeQuery; because the
// vector captures the exact floating-point state, resuming and extending is
// bit-identical to having evaluated the longer conjunction directly.
func (q *Query) Survivors() []float64 {
	out := make([]float64, len(q.partial))
	copy(out, q.partial)
	return out
}

// ResumeQuery reconstructs a query from a survivor vector previously
// obtained via Survivors (n is the number of interests it accumulated).
// The slice is copied; the caller's copy stays untouched.
func (m *Model) ResumeQuery(survivors []float64, n int) *Query {
	if len(survivors) != len(m.actT) {
		panic("population: ResumeQuery survivor vector does not match the activity grid")
	}
	q := &Query{m: m, partial: make([]float64, len(survivors)), n: n}
	copy(q.partial, survivors)
	return q
}

// ConjunctionShare evaluates the audience share of an interest set directly.
func (m *Model) ConjunctionShare(ids []interest.ID) float64 {
	q := m.NewQuery()
	for _, id := range ids {
		q.And(id)
	}
	return q.Share()
}

// UnionConjunctionShare evaluates Facebook's flexible_spec semantics: the
// audience holds at least one interest from every clause (clauses are ANDed,
// interests within a clause ORed). A single-interest clause degenerates to
// ConjunctionShare behaviour.
//
// With the row kernel enabled this runs as clause-major contiguous multiply
// loops over interned rows instead of a per-grid-point exp() triple loop.
// The restructure is bit-identical: per grid point the very same factors are
// multiplied in the very same order (rows hold the exact exp(−t·λ) bits the
// legacy loop computed inline; the legacy early-break only ever skipped
// multiplications of the form 0·x with x ∈ [0,1], which cannot change the
// product), and the final probability-weighted sum accumulates in the same
// grid order. Gated with the rest of the kernel in determinism_test.go.
func (m *Model) UnionConjunctionShare(clauses [][]interest.ID) float64 {
	if m.rows != nil {
		return m.unionShareKernel(clauses)
	}
	s := 0.0
	for k, t := range m.actT {
		prod := 1.0
		for _, clause := range clauses {
			miss := 1.0
			for _, id := range clause {
				miss *= math.Exp(-t * m.lambda[id])
			}
			prod *= 1 - miss
			if prod == 0 {
				break
			}
		}
		s += m.actP[k] * prod
	}
	return s
}

// unionShareKernel is the row-kernel evaluation of UnionConjunctionShare.
// Scratch vectors come from the model's pool, so a warm call allocates only
// when a clause's row is still unmaterialized.
func (m *Model) unionShareKernel(clauses [][]interest.ID) float64 {
	prodp := m.borrowVec()
	prod := *prodp
	for k := range prod {
		prod[k] = 1
	}
	var (
		missp *[]float64
		miss  []float64
	)
	for _, clause := range clauses {
		if len(clause) == 1 {
			// One-interest clause: 1·e = e exactly, so the clause factor is
			// 1 − e directly — no miss vector needed.
			row := m.row(clause[0])
			p := prod[:len(row)]
			for k, e := range row {
				p[k] *= 1 - e
			}
			continue
		}
		if missp == nil {
			missp = m.borrowVec()
			miss = *missp
		}
		for k := range miss {
			miss[k] = 1
		}
		for _, id := range clause {
			row := m.row(id)
			mv := miss[:len(row)]
			for k, e := range row {
				mv[k] *= e
			}
		}
		p := prod[:len(miss)]
		for k, mk := range miss {
			p[k] *= 1 - mk
		}
	}
	s := 0.0
	for k, p := range m.actP {
		s += p * prod[k]
	}
	if missp != nil {
		m.returnVec(missp)
	}
	m.returnVec(prodp)
	return s
}

// ExpectedAudience returns the model-expected number of users matching the
// demographic filter AND holding every interest in ids.
func (m *Model) ExpectedAudience(f DemoFilter, ids []interest.ID) float64 {
	return float64(m.pop) * m.DemoShare(f) * m.ConjunctionShare(ids)
}

// ExpectedAudienceConditional returns the expected audience size of the
// conjunction given that one known user (the combination's owner) holds all
// the interests: 1 + (Pop·demoShare − 1)·p. This is the right expectation
// for the uniqueness study, where every queried combination comes from a
// real profile (§4.1).
func (m *Model) ExpectedAudienceConditional(f DemoFilter, ids []interest.ID) float64 {
	return m.ConditionalAudienceFromShare(f, m.ConjunctionShare(ids))
}

// ConditionalAudienceFromShare is ExpectedAudienceConditional for a
// conjunction share p that has already been evaluated (e.g. served from the
// audience cache): 1 + (Pop·demoShare − 1)·p.
func (m *Model) ConditionalAudienceFromShare(f DemoFilter, p float64) float64 {
	return m.ConditionalAudienceFromShares(m.DemoShare(f), p)
}

// ConditionalAudienceFromShares is ConditionalAudienceFromShare when the
// demographic share has ALSO already been evaluated (the audience engine
// caches both factors under separate keys). Bit-identical to the one-shot
// form whenever demoShare carries the exact bits DemoShare(f) returns.
func (m *Model) ConditionalAudienceFromShares(demoShare, p float64) float64 {
	return ConditionalAudience(m.pop, demoShare, p)
}

// ConditionalAudience composes the §4.1 conditional audience expectation
// 1 + max(0, pop·demoShare − 1)·p from a population size and already
// evaluated demographic and conjunction shares. It is the one definition of
// that arithmetic: the model, the audience engine and the serving proxy
// (which asks a replica for the two shares first) all call it, so their
// answers can only differ by the shares fed in.
func ConditionalAudience(pop int64, demoShare, p float64) float64 {
	base := float64(pop)*demoShare - 1
	if base < 0 {
		base = 0
	}
	return 1 + base*p
}

// RealizeAudience draws a concrete audience size for a campaign whose
// targeting matches expected share p within a filtered base of n users,
// conditioned on the targeted user matching: 1 + Binomial(n−1, p).
// This is the delivery-time counterpart of ExpectedAudienceConditional —
// "reached exactly 1 user" is a random event, as in the paper's Table 2.
func (m *Model) RealizeAudience(f DemoFilter, ids []interest.ID, r *rng.Rand) int64 {
	return m.RealizeAudienceFromShare(f, m.ConjunctionShare(ids), r)
}

// RealizeAudienceFromShare is RealizeAudience for a precomputed conjunction
// share p. Splitting the (deterministic, cacheable) share evaluation from
// the (stochastic) realization lets the audience engine cache the former
// without perturbing the latter's random stream.
func (m *Model) RealizeAudienceFromShare(f DemoFilter, p float64, r *rng.Rand) int64 {
	return m.RealizeAudienceFromShares(m.DemoShare(f), p, r)
}

// RealizeAudienceFromShares is RealizeAudienceFromShare with the demographic
// share precomputed as well (both factors served from the audience cache).
// The random stream consumption is identical to the one-shot form, so draws
// are bit-identical whenever demoShare carries DemoShare(f)'s exact bits.
func (m *Model) RealizeAudienceFromShares(demoShare, p float64, r *rng.Rand) int64 {
	n := int64(float64(m.pop) * demoShare)
	if n < 1 {
		n = 1
	}
	return 1 + dist.Binomial(r, n-1, p)
}
