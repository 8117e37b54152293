package serving

import (
	"context"
	"fmt"
	"sync/atomic"

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

// rotation hands out the shard or replica that answers the next estimate:
// 0, 1, …, n-1, 0, … in call order, safe for concurrent use. Every shard's
// and replica's shares equal the single world's bit for bit, so which one
// answers never changes an answer; rotating only spreads the work.
type rotation struct{ next atomic.Uint64 }

func (r *rotation) pick(n int) int { return int((r.next.Add(1) - 1) % uint64(n)) }

// shard is one backend world: its user-ID range and the shard-local
// model/engine pair (own row-kernel state, own audience cache).
type shard struct {
	rng    ShardRange
	model  *population.Model
	engine *audience.Engine
}

// ShardedBackend serves reach estimates from N in-process backend shards.
// Shard s owns user-ID range [pop·s/N, pop·(s+1)/N); integer range
// arithmetic guarantees the ranges tile [0, pop) exactly. Every shard's
// model has the single world's rates and grid, so its shares are the single
// world's bit for bit: each query is answered by ONE shard, picked in
// rotation, and every answer is byte-identical to LocalBackend's at any N.
// See the package comment for the exactness argument.
type ShardedBackend struct {
	catalog *interest.Catalog
	pop     int64
	shards  []*shard
	workers int
	turn    rotation
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
	return &ShardedBackend{catalog: cat, pop: pop, shards: shards, workers: n}, nil
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

// engine is the engine of the shard whose turn it is to answer.
func (b *ShardedBackend) engine() *audience.Engine {
	return b.shards[b.turn.pick(len(b.shards))].engine
}

// ReachShares implements ReachBackend: one shard evaluates both factor
// shares with the calls LocalBackend makes, so the pair is byte-identical
// to LocalBackend's. Shard evaluation cannot fail; the only error is
// *CanceledError for a caller that gave up before the shard was asked.
func (b *ShardedBackend) ReachShares(ctx context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, &CanceledError{Err: err}
	}
	e := b.engine()
	return e.DemoShare(f), e.UnionShare(clauses), nil
}

// DemoShare returns the population share matching a demographic filter, from
// one shard (ctx ignored: in-process evaluation has no cancellation points).
func (b *ShardedBackend) DemoShare(_ context.Context, f population.DemoFilter) float64 {
	return b.engine().DemoShare(f)
}

// UnionShare returns the population share matching a union of interest
// conjunctions, from one shard (ctx ignored; see DemoShare).
func (b *ShardedBackend) UnionShare(_ context.Context, clauses [][]interest.ID) float64 {
	return b.engine().UnionShare(clauses)
}

// ConditionalAudience composes LocalBackend.ConditionalAudience's quantity
// from one shard's two factor shares (served from its cached demo and
// conjunction levels) and the global population by
// population.ConditionalAudience — the arithmetic the local engine applies,
// so the answer is byte-identical to the local path (ctx ignored; see
// DemoShare).
func (b *ShardedBackend) ConditionalAudience(_ context.Context, f population.DemoFilter, ids []interest.ID) float64 {
	e := b.engine()
	return population.ConditionalAudience(b.pop, e.DemoShare(f), e.ConjunctionShare(ids))
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
