// Package serving is the multi-world serving tier behind the simulated
// Marketing API: the ReachBackend contract the API server estimates reach
// through, a LocalBackend wrapping one in-process model/engine pair, a
// ShardedBackend that splits the population by user-ID range across N
// backend shards and scatter-gathers their audience shares, and an
// admission controller that throttles per-advertiser-account request floods
// (the Faizullabhoy–Korolova abuse pattern) with 429 + Retry-After.
//
// # Sharding model and exactness
//
// A shard owns the user-ID range [pop·s/N, pop·(s+1)/N) and carries its own
// population.Model (calibrated over the shared interest catalog) plus its
// own audience.Engine and inclusion-row kernel state. The population model
// is analytic — an audience share is an expectation over the activity grid,
// not a scan over materialized users — and its calibration is share-based,
// so a shard's model has bit-identical per-interest rates and activity grid
// to the single-world model regardless of the shard's population count
// (worldcfg.Config.BuildModel). A targeting spec's global audience is then
// composed from per-shard shares multiplicatively: shard s contributes
// weight_s · share_s where weight_s = pop_s/pop is its population mass, and
// the aggregator sums the terms in shard-index order.
//
// Because share_s is bit-identical across shards and to the single world,
// exactness is preservable by construction: at N=1 the single term is
// 1.0 · share — byte-identical to LocalBackend — and at N>1 the only
// deviation is floating-point reassociation of the weighted sum, bounded
// well inside 1e-12 relative error. Both bounds are gated by the property
// tests in this package.
package serving

import (
	"context"
	"errors"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/worldcfg"
)

// ReachBackend is the contract the Marketing API server estimates reach
// through. Implementations must be safe for concurrent use; every method
// must be deterministic for a fixed backing configuration (the adsapi
// golden and determinism suites ride on it).
//
// Every query method takes the caller's context — the adsapi handler passes
// its request context so cancellation and deadlines propagate through the
// whole serving stack. Local (CPU-bound) backends accept and ignore it;
// network backends (ProxyBackend) thread it into every shard RPC, retry
// sleep and backoff, and abandon work the caller no longer wants by
// panicking with *CanceledError (recovered by the HTTP tier, like
// *UnavailableError). Values are unaffected by the context: for any ctx
// that stays live, results are byte-identical to an undeadlined one's.
type ReachBackend interface {
	// Catalog exposes the interest ecosystem for spec validation and
	// /search.
	Catalog() *interest.Catalog
	// Population is the total modeled user-base size across the backend.
	Population() int64
	// ReachShares returns both factors of one reach estimate: the population
	// share matching a demographic filter and the share matching a
	// flexible-spec union of interest conjunctions. Sharded backends gather
	// both in one scatter, so the two factors always come from the same
	// set of shards.
	ReachShares(ctx context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64)
	// ConditionalAudience returns the §4.1 conditional audience expectation
	// of a conjunction inside a demographic slice — 1 + max(0, Pop·demoShare
	// − 1)·conjShare, the quantity the group-conditional Appendix C
	// collection consumes. Sharded backends compose it from scatter-gathered
	// shares: byte-identical to the local path at one shard, within the
	// package's 1e-12 relative bound above it.
	ConditionalAudience(ctx context.Context, f population.DemoFilter, ids []interest.ID) float64
	// AudienceStats snapshots the backend's audience-cache counters,
	// aggregated across shards.
	AudienceStats(ctx context.Context) audience.Stats
	// WarmRows materializes every shard's full inclusion-row table up
	// front (population.Model.WarmAllRows).
	WarmRows(ctx context.Context)
}

// LocalBackend is the single-world ReachBackend: one model, one engine.
type LocalBackend struct {
	model  *population.Model
	engine *audience.Engine
}

// NewLocalBackend wraps an existing model/engine pair. A nil engine gets a
// default cached engine over the model.
func NewLocalBackend(model *population.Model, engine *audience.Engine) (*LocalBackend, error) {
	if model == nil {
		return nil, errors.New("serving: LocalBackend needs a model")
	}
	if engine == nil {
		engine = audience.New(model, audience.Options{})
	} else if engine.Model() != model {
		return nil, errors.New("serving: engine is backed by a different model")
	}
	return &LocalBackend{model: model, engine: engine}, nil
}

// NewLocalBackendFromConfig builds the single world described by cfg — the
// same construction a ShardedBackend shard uses, at full population.
func NewLocalBackendFromConfig(cfg worldcfg.Config) (*LocalBackend, error) {
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, err
	}
	model, err := cfg.BuildModel(cat, 0)
	if err != nil {
		return nil, err
	}
	return &LocalBackend{model: model, engine: cfg.NewEngine(model)}, nil
}

// Catalog implements ReachBackend.
func (b *LocalBackend) Catalog() *interest.Catalog { return b.model.Catalog() }

// Population implements ReachBackend.
func (b *LocalBackend) Population() int64 { return b.model.Population() }

// ReachShares implements ReachBackend. The local engine is CPU-bound with
// no cancellation points, so ctx is accepted for the contract and ignored —
// a local evaluation finishes in microseconds either way.
func (b *LocalBackend) ReachShares(_ context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64) {
	return b.engine.DemoShare(f), b.engine.UnionShare(clauses)
}

// DemoShare returns the population share matching a demographic filter
// (ctx ignored; see ReachShares).
func (b *LocalBackend) DemoShare(_ context.Context, f population.DemoFilter) float64 {
	return b.engine.DemoShare(f)
}

// UnionShare returns the population share matching a union of interest
// conjunctions (ctx ignored; see ReachShares).
func (b *LocalBackend) UnionShare(_ context.Context, clauses [][]interest.ID) float64 {
	return b.engine.UnionShare(clauses)
}

// ConditionalAudience implements ReachBackend via the engine's composite
// (DemoFilter, conjunction) demo-level cache (ctx ignored; see ReachShares).
func (b *LocalBackend) ConditionalAudience(_ context.Context, f population.DemoFilter, ids []interest.ID) float64 {
	return b.engine.ExpectedAudienceConditional(f, ids)
}

// AudienceStats implements ReachBackend (ctx ignored; see ReachShares).
func (b *LocalBackend) AudienceStats(context.Context) audience.Stats { return b.engine.Stats() }

// WarmRows implements ReachBackend (ctx ignored; see ReachShares).
func (b *LocalBackend) WarmRows(context.Context) { b.model.WarmAllRows() }

// Model exposes the backing model (test and wiring use).
func (b *LocalBackend) Model() *population.Model { return b.model }

// Engine exposes the backing audience engine (test and wiring use).
func (b *LocalBackend) Engine() *audience.Engine { return b.engine }

// addStats folds two cache snapshots field-by-field (cross-shard totals).
func addStats(a, b audience.Stats) audience.Stats {
	a.Prefix = addLevel(a.Prefix, b.Prefix)
	a.Set = addLevel(a.Set, b.Set)
	a.Demo = addLevel(a.Demo, b.Demo)
	return a
}

func addLevel(a, b audience.LevelStats) audience.LevelStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.Coalesced += b.Coalesced
	a.Entries += b.Entries
	a.Capacity += b.Capacity
	return a
}
