package serving

import (
	"context"
	"fmt"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/population"
	"nanotarget/internal/worldcfg"
)

// ShardRange is the user-ID range [Lo, Hi) a shard owns.
type ShardRange struct {
	Lo, Hi int64
}

// Size returns the number of users in the range.
func (r ShardRange) Size() int64 { return r.Hi - r.Lo }

// weight is the range's population mass: its share of pop users.
func (r ShardRange) weight(pop int64) float64 { return float64(r.Size()) / float64(pop) }

// shardRange is the user-ID range [pop·i/n, pop·(i+1)/n) shard i of n owns.
// The integer arithmetic makes the n ranges tile [0, pop) exactly, and every
// builder of a shard (in-process, shard process, proxy) calls this one
// function, so they all agree on the split.
func shardRange(pop int64, i, n int) ShardRange {
	return ShardRange{Lo: pop * int64(i) / int64(n), Hi: pop * int64(i+1) / int64(n)}
}

// checkShardCount rejects topologies with no shards or with more shards
// than users (a shard must own at least one user).
func checkShardCount(n int, pop int64) error {
	if n < 1 {
		return fmt.Errorf("serving: shard count %d must be >= 1", n)
	}
	if int64(n) > pop {
		return fmt.Errorf("serving: %d shards exceed population %d", n, pop)
	}
	return nil
}

// foldShares is the one fold of per-shard shares into a global share:
// Σ weight_s · share_s summed in shard-index order, with a lone shard's
// share returned bare (its weight is exactly 1.0, so the sum would return
// it anyway). ShardedBackend and a healthy ProxyBackend gather both fold
// through it, which is what keeps their answers byte-identical.
func foldShares(weights []float64, share func(i int) float64) float64 {
	if len(weights) == 1 {
		return share(0)
	}
	total := 0.0
	for i, w := range weights {
		total += w * share(i)
	}
	return total
}

// fanOut is the one shard fan-out of both sharded backends: it runs call
// for every shard i in [0, n), at most workers at a time, and returns shard
// i's answer and error at index i. A failing shard does not stop the others;
// what it means is the caller's policy. If ctx ends before the fan-out
// completes, fanOut returns *CanceledError instead of partial answers
// (unclaimed shards are skipped; claimed ones finish or observe ctx).
func fanOut[T any](ctx context.Context, n, workers int, call func(ctx context.Context, i int) (T, error)) ([]T, []error, error) {
	answers := make([]T, n)
	errs := make([]error, n)
	// No task fails, so ForEach's only error is ctx's, checked below.
	_ = parallel.ForEach(ctx, n, workers, func(i int) error {
		answers[i], errs[i] = call(ctx, i)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, &CanceledError{Err: err}
	}
	return answers, errs, nil
}

// must adapts an error-returning share query to the float64 share methods
// (DemoShare, UnionShare and ConditionalAudience on ShardedBackend and
// ProxyBackend). They sit outside ReachBackend — tests use them as exactness
// references and perfbench's traced backend wraps the proxy's — so no
// program path reaches this panic: the reach path returns its errors.
func must(v float64, err error) float64 {
	if err != nil {
		panic(err)
	}
	return v
}

// sharePair is one shard's answer to a reach estimate: both factor shares.
// It is also the fused reach-shares RPC's response body.
type sharePair struct {
	Demo  float64 `json:"demo"`
	Union float64 `json:"union"`
}

// shard is one backend world: its user-ID range and the shard-local
// model/engine pair (own row-kernel state, own audience cache).
type shard struct {
	rng    ShardRange
	model  *population.Model
	engine *audience.Engine
}

// ShardedBackend serves reach estimates from N in-process backend shards.
// Shard s owns user-ID range [pop·s/N, pop·(s+1)/N); integer range
// arithmetic guarantees the ranges tile [0, pop) exactly. Every query
// fans out to all shards over internal/parallel (fanOut) and folds the
// per-shard shares as weight_s · share_s, summed in shard-index order — deterministic
// under any worker schedule, byte-identical to LocalBackend at N=1 (the
// single term is 1.0 · share) and within 1e-12 relative at N>1 (the
// per-shard shares are bit-identical; only the weighted sum reassociates).
// See the package comment for the full exactness argument.
type ShardedBackend struct {
	catalog *interest.Catalog
	pop     int64
	shards  []*shard
	weights []float64 // shard s's population mass, rng.Size() / pop
	workers int
}

// NewShardedBackend builds n shards from one world configuration — the same
// struct nanotarget.NewWorldFromConfig consumes. The interest catalog is
// generated once and shared; each shard calibrates its own model over it
// (bit-identical rates and grid regardless of range size, see
// worldcfg.Config.BuildModel) and fronts it with its own audience engine.
// Shard construction itself fans out over internal/parallel under ctx, so
// an aborted boot (SIGINT during a multi-minute bench-scale build) stops
// calibrating shards instead of finishing work nobody wants.
func NewShardedBackend(ctx context.Context, cfg worldcfg.Config, n int) (*ShardedBackend, error) {
	pop := cfg.Population.Population
	if err := checkShardCount(n, pop); err != nil {
		return nil, err
	}
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, err
	}
	shards, err := parallel.Map(ctx, n, cfg.Parallelism, func(i int) (*shard, error) {
		r := shardRange(pop, i, n)
		model, err := cfg.BuildModel(cat, r.Size())
		if err != nil {
			return nil, fmt.Errorf("serving: shard %d: %w", i, err)
		}
		return &shard{rng: r, model: model, engine: cfg.NewEngine(model)}, nil
	})
	if err != nil {
		return nil, err
	}
	weights := make([]float64, n)
	for i, s := range shards {
		weights[i] = s.rng.weight(pop)
	}
	return &ShardedBackend{catalog: cat, pop: pop, shards: shards, weights: weights, workers: n}, nil
}

// NumShards returns the shard count.
func (b *ShardedBackend) NumShards() int { return len(b.shards) }

// Ranges returns every shard's user-ID range in shard order.
func (b *ShardedBackend) Ranges() []ShardRange {
	out := make([]ShardRange, len(b.shards))
	for i, s := range b.shards {
		out[i] = s.rng
	}
	return out
}

// Catalog implements ReachBackend.
func (b *ShardedBackend) Catalog() *interest.Catalog { return b.catalog }

// Population implements ReachBackend.
func (b *ShardedBackend) Population() int64 { return b.pop }

// ReachShares implements ReachBackend: one fan-out evaluates both factor
// shares on every shard, and each factor is folded on its own by
// foldShares — the arithmetic of DemoShare and UnionShare, so each factor
// is byte-identical to its single-share query. Shard evaluation cannot
// fail; the only error is *CanceledError from a caller that gave up.
func (b *ShardedBackend) ReachShares(ctx context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64, err error) {
	pairs, _, err := fanOut(ctx, len(b.shards), b.workers, func(_ context.Context, i int) (sharePair, error) {
		e := b.shards[i].engine
		return sharePair{Demo: e.DemoShare(f), Union: e.UnionShare(clauses)}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	demo = foldShares(b.weights, func(i int) float64 { return pairs[i].Demo })
	union = foldShares(b.weights, func(i int) float64 { return pairs[i].Union })
	return demo, union, nil
}

// share fans a one-share query out to every shard and folds the answers.
func (b *ShardedBackend) share(ctx context.Context, eval func(e *audience.Engine) float64) (float64, error) {
	shares, _, err := fanOut(ctx, len(b.shards), b.workers, func(_ context.Context, i int) (float64, error) {
		return eval(b.shards[i].engine), nil
	})
	if err != nil {
		return 0, err
	}
	return foldShares(b.weights, func(i int) float64 { return shares[i] }), nil
}

// DemoShare returns the population share matching a demographic filter (a
// float64 adapter; see must).
func (b *ShardedBackend) DemoShare(ctx context.Context, f population.DemoFilter) float64 {
	return must(b.share(ctx, func(e *audience.Engine) float64 { return e.DemoShare(f) }))
}

// UnionShare returns the population share matching a union of interest
// conjunctions (a float64 adapter; see must).
func (b *ShardedBackend) UnionShare(ctx context.Context, clauses [][]interest.ID) float64 {
	return must(b.share(ctx, func(e *audience.Engine) float64 { return e.UnionShare(clauses) }))
}

// ConditionalAudience composes LocalBackend.ConditionalAudience's quantity
// from both factor shares, each folded on its own (served from the shards'
// cached demo and conjunction levels), with the global population by
// population.ConditionalAudience — the arithmetic the local engine applies,
// so one shard reproduces the local path byte-identically and more shards
// deviate only by the folds' reassociation (a float64 adapter; see must).
func (b *ShardedBackend) ConditionalAudience(ctx context.Context, f population.DemoFilter, ids []interest.ID) float64 {
	demo := must(b.share(ctx, func(e *audience.Engine) float64 { return e.DemoShare(f) }))
	conj := must(b.share(ctx, func(e *audience.Engine) float64 { return e.ConjunctionShare(ids) }))
	return population.ConditionalAudience(b.pop, demo, conj)
}

// AudienceStats implements ReachBackend: the fold of every shard's cache
// counters.
func (b *ShardedBackend) AudienceStats(context.Context) audience.Stats {
	var st audience.Stats
	for _, s := range b.shards {
		st = addStats(st, s.engine.Stats())
	}
	return st
}

// WarmRows implements ReachBackend: every shard materializes its own full
// inclusion-row table, in parallel; a cancelled ctx stops warming unclaimed
// shards (warming is an optimization, so partial completion is harmless).
func (b *ShardedBackend) WarmRows(ctx context.Context) {
	_ = parallel.ForEach(ctx, len(b.shards), b.workers, func(i int) error {
		b.shards[i].model.WarmAllRows()
		return nil
	})
}
