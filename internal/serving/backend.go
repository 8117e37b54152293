// Package serving is the serving tier behind the simulated Marketing API:
// the ReachBackend contract the API server estimates reach through, a
// LocalBackend wrapping one in-process model/engine pair, a ProxyBackend
// that fronts a flat list of replica processes (remote.go), and an admission
// controller that throttles per-advertiser-account request floods (the
// Faizullabhoy–Korolova abuse pattern) with 429 + Retry-After.
//
// # Replicas and exactness
//
// The population model is analytic — an audience share is an expectation
// over the activity grid, not a scan over materialized users — and it is a
// pure function of worldcfg.Config. Every replica builds the whole world
// from the proxy's config, so its share of a targeting spec is the single
// world's share, bit for bit.
//
// So one replica answers each query: the proxy picks it by an atomic
// rotation counter, fails over to the next live replica when it cannot
// answer, and returns the answer unchanged. Every answer is byte-identical
// to LocalBackend at any replica count — gated by the property tests in
// this package; what more replicas buy is spread load and availability.
package serving

import (
	"context"
	"errors"
	"fmt"

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
// network backends (ProxyBackend) thread it into every replica RPC and the
// hedge delay. Failure is a returned error, never a fabricated share:
// *CanceledError when the caller's context ends mid-query, *UnavailableError
// when no replica answers. Values are
// unaffected by the context: for any ctx that stays live, results are
// byte-identical to an undeadlined one's.
type ReachBackend interface {
	// Catalog exposes the interest ecosystem for spec validation and
	// /search.
	Catalog() *interest.Catalog
	// Population is the total modeled user-base size across the backend.
	Population() int64
	// ReachShares returns both factors of one reach estimate: the population
	// share matching a demographic filter and the share matching a
	// flexible-spec union of interest conjunctions. ProxyBackend asks one
	// replica for both, in one RPC. LocalBackend never returns an error.
	ReachShares(ctx context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64, err error)
	// AudienceStats snapshots the backend's audience-cache counters,
	// aggregated across replicas.
	AudienceStats(ctx context.Context) audience.Stats
	// WarmRows materializes every world's full inclusion-row table up
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
// same construction a replica uses (NewReplicaBackend).
func NewLocalBackendFromConfig(cfg worldcfg.Config) (*LocalBackend, error) {
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, err
	}
	model, err := cfg.BuildModel(cat)
	if err != nil {
		return nil, err
	}
	return &LocalBackend{model: model, engine: cfg.NewEngine(model)}, nil
}

// NewShardedBackend checks that n is at least 1 and returns
// NewLocalBackendFromConfig(cfg): every shard of the world is the whole
// world.
//
// Deprecated: use NewLocalBackendFromConfig. perfbench's correctness oracle
// is the only caller.
func NewShardedBackend(_ context.Context, cfg worldcfg.Config, n int) (*LocalBackend, error) {
	if n < 1 {
		return nil, fmt.Errorf("serving: shard count %d must be >= 1", n)
	}
	return NewLocalBackendFromConfig(cfg)
}

// Catalog implements ReachBackend.
func (b *LocalBackend) Catalog() *interest.Catalog { return b.model.Catalog() }

// Population implements ReachBackend.
func (b *LocalBackend) Population() int64 { return b.model.Population() }

// ReachShares implements ReachBackend. The local engine is CPU-bound with
// no cancellation points, so ctx is accepted for the contract and ignored —
// a local evaluation finishes in microseconds either way — and the error is
// always nil.
func (b *LocalBackend) ReachShares(_ context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64, err error) {
	return b.engine.DemoShare(f), b.engine.UnionShare(clauses), nil
}

// AudienceStats implements ReachBackend (ctx ignored; see ReachShares).
func (b *LocalBackend) AudienceStats(context.Context) audience.Stats { return b.engine.Stats() }

// WarmRows implements ReachBackend (ctx ignored; see ReachShares).
func (b *LocalBackend) WarmRows(context.Context) { b.model.WarmAllRows() }

// Model exposes the backing model (test and wiring use).
func (b *LocalBackend) Model() *population.Model { return b.model }

// Engine exposes the backing audience engine (test and wiring use).
func (b *LocalBackend) Engine() *audience.Engine { return b.engine }

// addStats folds two cache snapshots field-by-field (totals across
// replicas).
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
