// Package audience is the shared audience-query engine of the reproduction:
// a concurrency-safe, cached, batched front-end over population.Model's
// quadrature-based audience evaluation.
//
// Every subsystem that needs an audience size — the simulated Marketing API
// server (internal/adsapi), the nanotargeting experiment
// (internal/experiment via internal/campaign), the countermeasure replay
// (internal/countermeasures), the FDVT risk scans (internal/fdvt) and the
// uniqueness study (internal/core) — issues the same query an attacker
// issues thousands of times while probing conjunctions toward uniqueness:
// "how many users hold all of these interests?". The engine serves that
// query once and remembers it, across three cache levels:
//
//   - Prefix: interest-sequence keys are canonically encoded and interned
//     (key.go); a sharded LRU (cache.go) holds evaluated ORDERED
//     conjunctions — each asked conjunction, and every prefix of a
//     PrefixShares walk. Extending a cached conjunction S resumes S's
//     per-grid-point survivor weights instead of recomputing the whole
//     activity-grid product — an O(grid) extension, not O(|S|·grid).
//   - Set (ModeCanonical only): whole-conjunction shares keyed by the
//     SORTED interest set, so the adversarial permuted re-probes of §4 /
//     Appendix C — semantically identical queries under arbitrary interest
//     orderings — hit one entry instead of missing the ordered level.
//   - Demo: demographic-filter shares and composite (DemoFilter,
//     conjunction) conditional audiences, extending caching to the
//     filter-dependent Appendix C scans.
//
// Per-level hit/miss/eviction/coalesced counters are exposed via Stats();
// EvalBatch fans independent queries out over internal/parallel with
// per-worker scratch.
//
// # Hot-path mechanics
//
// Two layers sit around the caches. The warm path is ALLOCATION-FREE: key
// buffers and sort scratch are pooled (scratch, below), cache lookups probe
// with byte slices against interned string keys, and a cache hit returns
// without copying survivor state — gated at 0 allocs/op in flight_test.go.
// Cache-miss walks borrow pooled evaluation state from the model
// (population.Model.BorrowQuery/BorrowResumeQuery) instead of allocating
// per walk, and the underlying model evaluates on the precomputed
// inclusion-row kernel (population rows.go) rather than calling exp() per
// grid point. Concurrent IDENTICAL misses are single-flighted per level
// (flight.go): one goroutine evaluates, the rest share its result — which
// cannot perturb either mode's contract because every cached value is a
// pure function of its key (see flight.go).
//
// # Determinism contract
//
// In ModeExact (the default) the cache is byte-invisible: a cached result is
// bit-identical to what an uncached evaluation would have produced, for any
// interleaving of concurrent queries. This holds because (a) keys preserve
// query order, so a cached survivor vector is exactly the floating-point
// state the direct evaluation would have reached, (b) entries are immutable,
// so racing writers can only ever insert identical bits, and (c) the demo
// level only memoizes pure functions of its key. determinism_test.go gates
// cache-on == cache-off across the full pipeline for seeds {0, 1, 42}.
//
// ModeCanonical relaxes (a) for ConjunctionShare and everything derived from
// it: the engine evaluates the sorted permutation of the query, making the
// result a pure function of the interest SET — byte-identical across every
// ordering, every worker count, every engine instance and every cache state,
// but within MaxCanonicalRelativeError of the ModeExact value rather than
// bit-equal to it. See Mode's documentation for when each contract is the
// right one.
package audience

import (
	"context"
	"slices"
	"sync"

	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

// DefaultCapacity is the default number of cached ordered conjunctions.
// At the default 512-point activity grid one entry holds ~4 KiB of survivor
// weights, so the default cache tops out around 32 MiB. Like every level,
// it starts empty and grows to its capacity as entries arrive; only then
// does it evict.
const DefaultCapacity = 8192

// DefaultSetCapacity is the default number of cached canonical sets
// (ModeCanonical). Set entries hold only a key and a share — tens of bytes —
// so the set level can afford an order of magnitude more entries than the
// survivor-vector level. The level grows to this bound as sets arrive, so
// an engine that serves a few hundred sets holds a few hundred entries.
const DefaultSetCapacity = 65536

// DefaultDemoCapacity is the default number of cached demographic values
// (filter shares plus composite conditional audiences); entries are as small
// as set entries, and the level grows to this bound as they arrive.
const DefaultDemoCapacity = 16384

// DefaultShards is the default lock-domain count of each cache level.
const DefaultShards = 16

// Demo-level kind tags: the first key byte distinguishes what a cached value
// means, so a filter share can never alias a conditional audience over a
// (filter, conjunction) pair whose conjunction is empty.
const (
	demoKindShare byte = 'F' // DemoShare(f), keyed by the filter alone
	demoKindCond  byte = 'C' // ExpectedAudienceConditional(f, ids)
)

// Options configures an Engine.
type Options struct {
	// Capacity is the total number of cached ordered conjunctions across
	// all shards (0 = DefaultCapacity). Negative disables caching entirely.
	Capacity int
	// SetCapacity sizes the canonical set level (0 = DefaultSetCapacity).
	// Only used in ModeCanonical.
	SetCapacity int
	// DemoCapacity sizes the demographic level (0 = DefaultDemoCapacity).
	DemoCapacity int
	// Shards is the number of cache lock domains per level
	// (0 = DefaultShards).
	Shards int
	// Mode selects the caching contract: ModeExact (default, byte-identical
	// ordered path) or ModeCanonical (permutation-invariant set path within
	// MaxCanonicalRelativeError of exact).
	Mode Mode
	// Disabled turns the cache off: every call delegates straight to the
	// model — exactly the pre-engine behaviour. Mode is irrelevant when
	// disabled (an uncached evaluation is always exact).
	Disabled bool
}

// Engine is the cached audience oracle. It is safe for concurrent use.
type Engine struct {
	model *population.Model
	mode  Mode
	cache *cache // ordered-prefix level; nil when disabled
	sets  *cache // canonical set level; nil unless ModeCanonical
	demo  *cache // demographic level; nil when disabled

	// Per-level single-flight groups, keyed like their cache level
	// (flight.go). Zero values; unused when the cache is disabled.
	flightPrefix flightGroup
	flightSet    flightGroup
	flightDemo   flightGroup
}

// scratch holds one evaluation's reusable buffers: the cache-key buffer and
// the canonical-sort scratch. Pooled so warm cache hits allocate nothing;
// EvalBatch pins one per worker for the duration of a batch.
type scratch struct {
	key []byte
	ids []interest.ID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// New builds an engine over the model with the given options.
func New(m *population.Model, opts Options) *Engine {
	if m == nil {
		panic("audience: nil model")
	}
	e := &Engine{model: m, mode: opts.Mode}
	if opts.Disabled || opts.Capacity < 0 {
		return e
	}
	capacity := opts.Capacity
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	e.cache = newCache(capacity, min(shards, capacity))
	demoCap := opts.DemoCapacity
	if demoCap == 0 {
		demoCap = DefaultDemoCapacity
	}
	e.demo = newCache(demoCap, min(shards, demoCap))
	if opts.Mode == ModeCanonical {
		setCap := opts.SetCapacity
		if setCap == 0 {
			setCap = DefaultSetCapacity
		}
		e.sets = newCache(setCap, min(shards, setCap))
	}
	return e
}

// Cached returns an engine with the default cache configuration (ModeExact).
func Cached(m *population.Model) *Engine { return New(m, Options{}) }

// Canonical returns an engine with the default cache configuration in
// ModeCanonical: permutation-invariant set-level caching.
func Canonical(m *population.Model) *Engine { return New(m, Options{Mode: ModeCanonical}) }

// Disabled returns a pass-through engine (no cache, no overhead): the
// pre-engine behaviour behind the same interface.
func Disabled(m *population.Model) *Engine { return New(m, Options{Disabled: true}) }

// Model returns the underlying world model.
func (e *Engine) Model() *population.Model { return e.model }

// Catalog returns the interest catalog of the underlying model.
func (e *Engine) Catalog() *interest.Catalog { return e.model.Catalog() }

// Population returns the modeled user-base size.
func (e *Engine) Population() int64 { return e.model.Population() }

// Enabled reports whether the cache is active.
func (e *Engine) Enabled() bool { return e.cache != nil }

// Mode returns the engine's caching contract.
func (e *Engine) Mode() Mode { return e.mode }

// Stats returns a snapshot of the per-level cache counters (zero value when
// the cache is disabled).
func (e *Engine) Stats() Stats {
	var st Stats
	if e.cache != nil {
		st.Prefix = e.cache.stats()
		st.Prefix.Coalesced = e.flightPrefix.coalesced.Load()
	}
	if e.sets != nil {
		st.Set = e.sets.stats()
		st.Set.Coalesced = e.flightSet.coalesced.Load()
	}
	if e.demo != nil {
		st.Demo = e.demo.stats()
		st.Demo.Coalesced = e.flightDemo.coalesced.Load()
	}
	return st
}

// Reset drops every cached value on every level and zeroes the counters
// (bench/test use).
func (e *Engine) Reset() {
	for _, c := range []*cache{e.cache, e.sets, e.demo} {
		if c != nil {
			c.reset()
		}
	}
	for _, g := range []*flightGroup{&e.flightPrefix, &e.flightSet, &e.flightDemo} {
		g.resetStats()
	}
}

// ConjunctionShare returns E_t[∏ q(t, λᵢ)], the fraction of the unfiltered
// base holding every interest in ids — in ModeExact bit-identical to
// population.Model.ConjunctionShare, in ModeCanonical bit-identical to the
// sorted permutation's exact share (so permutation-invariant), served from
// the cache when possible.
func (e *Engine) ConjunctionShare(ids []interest.ID) float64 {
	if e.cache == nil || len(ids) == 0 {
		return e.model.ConjunctionShare(ids)
	}
	sc := getScratch()
	share := e.conjunctionShare(ids, sc)
	putScratch(sc)
	return share
}

// conjunctionShare is ConjunctionShare with caller-supplied scratch
// (EvalBatch pins one scratch per worker instead of round-tripping the pool
// per query).
func (e *Engine) conjunctionShare(ids []interest.ID, sc *scratch) float64 {
	if e.cache == nil || len(ids) == 0 {
		return e.model.ConjunctionShare(ids)
	}
	if e.mode == ModeCanonical && len(ids) > 1 {
		return e.canonicalShare(ids, sc)
	}
	return e.orderedShare(ids, sc)
}

// orderedShare is the exact ordered-prefix path.
func (e *Engine) orderedShare(ids []interest.ID, sc *scratch) float64 {
	// Fast path: the exact conjunction is cached. Zero allocations.
	sc.key = AppendKey(sc.key[:0], ids)
	if ent, ok := e.cache.get(sc.key); ok {
		return ent.share
	}
	// Miss: single-flight the whole-conjunction evaluation. The leader
	// resumes the deepest cached prefix and stores the conjunction;
	// followers share its result.
	share, _ := e.flightPrefix.do(sc.key, func() float64 {
		return e.seekShare(ids, sc)
	})
	return share
}

// seekShare evaluates the share of ids after a whole-key miss: it probes
// prefixes LONGEST-FIRST for the deepest cached predecessor, resumes its
// survivor weights in a pooled query, extends to the end of ids and stores
// ids alone — a grow-by-one chain resumes the previous query's entry on the
// first probe, and the prefixes of a never-repeated conjunction would only
// evict entries someone may ask for. sc.key holds ids' key on return.
func (e *Engine) seekShare(ids []interest.ID, sc *scratch) float64 {
	var (
		q     *population.Query
		start int
	)
	for d := len(ids) - 1; d >= 1; d-- {
		sc.key = AppendKey(sc.key[:0], ids[:d])
		// seek, not get: these probes refine the one miss the caller
		// already counted, so only a landing probe touches the counters.
		if ent, ok := e.cache.seek(sc.key); ok {
			q = e.model.BorrowResumeQuery(ent.surv, ent.n)
			start = d
			break
		}
	}
	if q == nil {
		q = e.model.BorrowQuery()
	}
	for _, id := range ids[start:] {
		q.And(id)
	}
	sc.key = AppendKey(sc.key[:0], ids)
	share := q.Share()
	e.cache.put(sc.key, share, q.Survivors(), len(ids))
	q.Release()
	return share
}

// canonicalShare evaluates the sorted permutation of ids through the set
// level, falling back to an ordered-prefix walk of the sorted sequence on a
// miss. The result depends only on the interest multiset: sorting is
// deterministic (duplicates keep their multiplicity) and the sorted walk is
// the exact evaluation of the sorted ordering, so a recomputation after
// eviction — or on a different engine — returns the same bits.
func (e *Engine) canonicalShare(ids []interest.ID, sc *scratch) float64 {
	sorted := e.sortedIDs(ids, sc)
	sc.key = AppendKey(sc.key[:0], sorted)
	if ent, ok := e.sets.get(sc.key); ok {
		return ent.share
	}
	share, _ := e.flightSet.do(sc.key, func() float64 {
		s := e.seekShare(sorted, sc)
		// seekShare left sc.key holding the full sorted key again.
		e.sets.put(sc.key, s, nil, len(sorted))
		return s
	})
	return share
}

// sortedIDs returns ids in ascending order, reusing the input slice when it
// is already sorted (the common case for probes grown in catalog order) and
// the scratch's pooled id buffer otherwise — callers' slices are never
// mutated and warm re-probes allocate nothing.
func (e *Engine) sortedIDs(ids []interest.ID, sc *scratch) []interest.ID {
	if slices.IsSorted(ids) {
		return ids
	}
	sc.ids = append(sc.ids[:0], ids...)
	slices.Sort(sc.ids)
	return sc.ids
}

// canonicalOrder returns ids ascending without mutating the input,
// allocating a copy when needed (tests and diagnostics; hot paths use
// sortedIDs with pooled scratch instead).
func canonicalOrder(ids []interest.ID) []interest.ID {
	if slices.IsSorted(ids) {
		return ids
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	return sorted
}

// PrefixShares returns the share of every prefix ids[:1], ids[:2], ...,
// ids[:len(ids)] — the §4.1 collection pattern — reusing and populating the
// cache along the walk. Prefix sequences are inherently order-defined, so
// this path keeps exact ordered semantics in both modes. Callers issuing
// many walks should prefer AppendPrefixShares with a reused buffer.
func (e *Engine) PrefixShares(ids []interest.ID) []float64 {
	if len(ids) == 0 {
		return nil
	}
	return e.AppendPrefixShares(make([]float64, 0, len(ids)), ids)
}

// AppendPrefixShares is PrefixShares appending into dst (the borrow-style
// variant: the §4.1 collection loops reuse one buffer across panel users
// instead of allocating a share vector per user). Prefix walks are not
// single-flighted — their value is the whole share vector, and overlapping
// walks already share work through the prefix cache itself.
func (e *Engine) AppendPrefixShares(dst []float64, ids []interest.ID) []float64 {
	if len(ids) == 0 {
		return dst
	}
	if e.cache == nil {
		q := e.model.BorrowQuery()
		for _, id := range ids {
			q.And(id)
			dst = append(dst, q.Share())
		}
		q.Release()
		return dst
	}
	sc := getScratch()
	dst = e.appendPrefixWalk(sc, dst, ids)
	putScratch(sc)
	return dst
}

// appendPrefixWalk evaluates every prefix of ids left to right, appending
// the shares to dst. Cached prefixes are served as-is; the first miss
// resumes the longest cached predecessor's survivor weights in a POOLED
// query (population.Model.BorrowResumeQuery) and extends one interest at a
// time, inserting each newly evaluated prefix. Keys build in sc.key
// (capacity reused across walks).
func (e *Engine) appendPrefixWalk(sc *scratch, dst []float64, ids []interest.ID) []float64 {
	keyBuf := sc.key[:0]
	var (
		q    *population.Query // borrowed evaluation state, lazily materialized
		last *entry            // deepest cached prefix seen so far
	)
	for i, id := range ids {
		keyBuf = AppendKey(keyBuf, ids[i:i+1])
		if q == nil {
			if ent, ok := e.cache.get(keyBuf); ok {
				dst = append(dst, ent.share)
				last = ent
				continue
			}
			// First miss: materialize state from the deepest hit (or from
			// scratch) and fall through to evaluate this prefix.
			if last != nil {
				q = e.model.BorrowResumeQuery(last.surv, last.n)
			} else {
				q = e.model.BorrowQuery()
			}
		}
		q.And(id)
		share := q.Share()
		dst = append(dst, share)
		// The cache owns its survivor vectors, so each inserted prefix gets
		// its own copy (Survivors); the walking state itself is pooled.
		e.cache.put(keyBuf, share, q.Survivors(), i+1)
	}
	if q != nil {
		q.Release()
	}
	sc.key = keyBuf
	return dst
}

// UnionShare evaluates flexible_spec semantics (clauses ANDed, interests
// within a clause ORed), matching population.Model.UnionConjunctionShare.
// Pure conjunctions — every clause a single interest, the shape the paper's
// probes use — are routed through ConjunctionShare (and so follow the
// engine's mode); genuine unions are evaluated directly and are identical in
// both modes.
func (e *Engine) UnionShare(clauses [][]interest.ID) float64 {
	if e.cache == nil {
		return e.model.UnionConjunctionShare(clauses)
	}
	ids := make([]interest.ID, len(clauses))
	for i, clause := range clauses {
		if len(clause) != 1 {
			return e.model.UnionConjunctionShare(clauses)
		}
		ids[i] = clause[0]
	}
	return e.ConjunctionShare(ids)
}

// DemoShare returns the demographic filter share, memoized on the demo level
// under the filter's key. Memoizing a pure function is byte-invisible, so
// this is cached in both modes.
func (e *Engine) DemoShare(f population.DemoFilter) float64 {
	if e.demo == nil {
		return e.model.DemoShare(f)
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.key = f.AppendKey(append(sc.key[:0], demoKindShare))
	if ent, ok := e.demo.get(sc.key); ok {
		return ent.share
	}
	s, _ := e.flightDemo.do(sc.key, func() float64 {
		v := e.model.DemoShare(f)
		e.demo.put(sc.key, v, nil, 0)
		return v
	})
	return s
}

// ExpectedAudience returns the model-expected number of users matching the
// filter and holding every interest in ids, composed from the cached
// demographic share and the (mode-dependent) cached conjunction share.
func (e *Engine) ExpectedAudience(f population.DemoFilter, ids []interest.ID) float64 {
	return float64(e.model.Population()) * e.DemoShare(f) * e.ConjunctionShare(ids)
}

// ExpectedAudienceConditional returns the §4.1 conditional audience
// expectation, cached whole under the composite (DemoFilter, conjunction)
// key — the Appendix C demographic-boost scans re-issue identical (filter,
// prefix) pairs constantly. In ModeCanonical the conjunction half of the key
// is sorted, so permuted re-probes of one pair share an entry.
func (e *Engine) ExpectedAudienceConditional(f population.DemoFilter, ids []interest.ID) float64 {
	if e.demo == nil {
		return e.model.ExpectedAudienceConditional(f, ids)
	}
	sc := getScratch()
	defer putScratch(sc)
	keyIDs := ids
	if e.mode == ModeCanonical {
		keyIDs = e.sortedIDs(ids, sc)
	}
	sc.key = AppendCompositeKey(append(sc.key[:0], demoKindCond), f, keyIDs)
	if ent, ok := e.demo.get(sc.key); ok {
		return ent.share
	}
	v, _ := e.flightDemo.do(sc.key, func() float64 {
		// keyIDs is already the mode's evaluation order (sorting is
		// idempotent), so evaluating it directly skips a second sort on
		// misses. The nested calls draw their own scratch — sc.key must
		// survive for the put below — and may coalesce on their own levels;
		// flight waits only ever run demo → prefix/set, never the reverse,
		// so the wait graph is acyclic.
		v := e.model.ConditionalAudienceFromShares(e.DemoShare(f), e.ConjunctionShare(keyIDs))
		e.demo.put(sc.key, v, nil, len(ids))
		return v
	})
	return v
}

// RealizeAudience draws a concrete audience size (1 + Binomial(n−1, p)),
// with the deterministic shares cached and the stochastic draw untouched —
// in ModeExact bit-identical to population.Model.RealizeAudience under the
// same stream.
func (e *Engine) RealizeAudience(f population.DemoFilter, ids []interest.ID, r *rng.Rand) int64 {
	return e.model.RealizeAudienceFromShares(e.DemoShare(f), e.ConjunctionShare(ids), r)
}

// InterestAudience returns the worldwide audience size of a single interest
// at the modeled population — the §3 catalog number the FDVT risk scale
// (§6) classifies against.
func (e *Engine) InterestAudience(id interest.ID) int64 {
	return e.model.Catalog().AudienceSize(id, e.model.Population())
}

// EvalBatch evaluates many independent conjunctions concurrently, fanning
// out over the parallel engine (workers: 0 = one per core, 1 = sequential).
// Results are returned in input order and are bit-identical for any worker
// count — concurrent evaluations can only ever insert identical bits into
// the cache (in ModeCanonical because every entry is a pure function of its
// key, independent of cache state). Each worker pins one scratch for the
// whole batch, so a warm batch performs no per-query pool traffic and no
// allocations beyond the result slice.
func (e *Engine) EvalBatch(batch [][]interest.ID, workers int) []float64 {
	out := make([]float64, len(batch))
	scratches := make([]*scratch, parallel.Workers(workers))
	// The task body never fails, so the returned error is always nil.
	_ = parallel.ForEachWorker(context.Background(), len(batch), workers, func(w, i int) error {
		sc := scratches[w]
		if sc == nil {
			sc = getScratch()
			scratches[w] = sc
		}
		out[i] = e.conjunctionShare(batch[i], sc)
		return nil
	})
	for _, sc := range scratches {
		if sc != nil {
			putScratch(sc)
		}
	}
	return out
}
