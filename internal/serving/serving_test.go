package serving

import (
	"context"
	"sync"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// smallConfig is the property-test world: big enough to exercise the share
// machinery, small enough to build 14 shard models per seed in test time.
// The population is deliberately not divisible by the tested shard counts so
// range arithmetic sees uneven splits.
func smallConfig(seed uint64) worldcfg.Config {
	cfg := worldcfg.Default()
	cfg.Population.Seed = seed
	cfg.Population.CatalogSize = 2000
	cfg.Population.Population = 10_000_001
	cfg.Population.ActivityGrid = 64
	return cfg
}

// randomClauses draws a flexible-spec union: 1–4 AND-clauses of 1–4 catalog
// interests each.
func randomClauses(r *rng.Rand, catalogSize int) [][]interest.ID {
	clauses := make([][]interest.ID, 1+r.Intn(4))
	for i := range clauses {
		clause := make([]interest.ID, 1+r.Intn(4))
		for j := range clause {
			clause[j] = interest.ID(1 + r.Intn(catalogSize-1))
		}
		clauses[i] = clause
	}
	return clauses
}

// randomFilter draws a demographic filter spanning the geo/age/gender axes.
func randomFilter(r *rng.Rand) population.DemoFilter {
	var f population.DemoFilter
	switch r.Intn(3) {
	case 1:
		f.Countries = []string{"US"}
	case 2:
		f.Countries = []string{"ES", "FR"}
	}
	if r.Intn(2) == 1 {
		f.AgeMin = 18 + r.Intn(20)
		f.AgeMax = f.AgeMin + r.Intn(30)
	}
	if r.Intn(2) == 1 {
		f.Genders = []population.Gender{population.GenderFemale}
	}
	return f
}

// TestShardedReachMatchesSingleWorld is the sharding exactness property:
// for random conjunctions/unions and demographic filters, reach over
// {1,2,3,8} shards equals the single-world answer byte for byte across seeds
// {0,1,42} — whichever shard the rotation picks, since every shard's shares
// are the single world's.
func TestShardedReachMatchesSingleWorld(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{0, 1, 42} {
		cfg := smallConfig(seed)
		local, err := NewLocalBackendFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 8} {
			sharded, err := NewShardedBackend(ctx, cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got := sharded.NumShards(); got != shards {
				t.Fatalf("NumShards = %d, want %d", got, shards)
			}
			if sharded.Population() != local.Population() {
				t.Fatalf("population mismatch: %d vs %d", sharded.Population(), local.Population())
			}
			check := func(trial int, what string, got, want float64) {
				t.Helper()
				if got != want {
					t.Fatalf("seed %d shards=%d trial %d: %s = %v, single-world %v — must be byte-identical",
						seed, shards, trial, what, got, want)
				}
			}
			r := rng.New(seed).Derive("property-queries")
			for trial := 0; trial < 40; trial++ {
				clauses := randomClauses(r, cfg.Population.CatalogSize)
				check(trial, "UnionShare", sharded.UnionShare(ctx, clauses), local.UnionShare(ctx, clauses))

				f := randomFilter(r)
				check(trial, "DemoShare", sharded.DemoShare(ctx, f), local.DemoShare(ctx, f))

				gotD, gotU, err := sharded.ReachShares(ctx, f, clauses)
				if err != nil {
					t.Fatal(err)
				}
				wantD, wantU, _ := local.ReachShares(ctx, f, clauses) // a LocalBackend never fails
				check(trial, "ReachShares demo", gotD, wantD)
				check(trial, "ReachShares union", gotU, wantU)

				// The Appendix C group path: composite (filter, conjunction)
				// audiences compose the same factor shares with the same
				// arithmetic as the local engine.
				conj := clauses[0]
				check(trial, "ConditionalAudience", sharded.ConditionalAudience(ctx, f, conj), local.ConditionalAudience(ctx, f, conj))
			}
		}
	}
}

// TestShardedReachConcurrent: callers sharing one ShardedBackend each get
// LocalBackend's answer while the rotation hands their queries to shards
// in whatever order they arrive (run under -race by CI).
func TestShardedReachConcurrent(t *testing.T) {
	cfg := smallConfig(1)
	ctx := context.Background()
	local, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedBackend(ctx, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c)).Derive(t.Name())
			for k := 0; k < 50; k++ {
				f, clauses := randomFilter(r), randomClauses(r, cfg.Population.CatalogSize)
				gotD, gotU, err := sharded.ReachShares(ctx, f, clauses)
				wantD, wantU, _ := local.ReachShares(ctx, f, clauses) // a LocalBackend never fails
				if err != nil || gotD != wantD || gotU != wantU {
					t.Errorf("caller %d query %d: (%v, %v, %v), LocalBackend (%v, %v)", c, k, gotD, gotU, err, wantD, wantU)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestShardRangesTile checks the user-ID ranges partition [0, pop) exactly,
// including populations that do not divide evenly.
func TestShardRangesTile(t *testing.T) {
	cfg := smallConfig(1)
	for _, shards := range []int{1, 2, 3, 8} {
		b, err := NewShardedBackend(context.Background(), cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		ranges := b.Ranges()
		if len(ranges) != shards {
			t.Fatalf("got %d ranges, want %d", len(ranges), shards)
		}
		var lo, total int64
		for i, r := range ranges {
			if r.Lo != lo {
				t.Fatalf("shards=%d: range %d starts at %d, want %d (gap or overlap)", shards, i, r.Lo, lo)
			}
			if r.Size() <= 0 {
				t.Fatalf("shards=%d: range %d is empty", shards, i)
			}
			lo = r.Hi
			total += r.Size()
		}
		if lo != cfg.Population.Population || total != cfg.Population.Population {
			t.Fatalf("shards=%d: ranges cover [0, %d), want [0, %d)", shards, lo, cfg.Population.Population)
		}
	}
}

func TestShardedBackendConstructionErrors(t *testing.T) {
	cfg := smallConfig(1)
	if _, err := NewShardedBackend(context.Background(), cfg, 0); err == nil {
		t.Fatal("0 shards should fail")
	}
	cfg.Population.Population = 4
	if _, err := NewShardedBackend(context.Background(), cfg, 5); err == nil {
		t.Fatal("more shards than users should fail")
	}
}

func TestLocalBackendConstruction(t *testing.T) {
	cfg := smallConfig(1)
	if _, err := NewLocalBackend(nil, nil); err == nil {
		t.Fatal("nil model should fail")
	}
	a, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An engine from one world cannot front another world's model.
	if _, err := NewLocalBackend(a.Model(), b.Engine()); err == nil {
		t.Fatal("mismatched engine/model should fail")
	}
	// A nil engine gets a default cached engine over the model.
	c, err := NewLocalBackend(a.Model(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine() == nil || c.Engine().Model() != a.Model() {
		t.Fatal("default engine not wired to the model")
	}
}

// TestShardedStatsAndWarmRows covers the cross-shard folds: cache counters
// sum over shards, and WarmRows warms every shard.
func TestShardedStatsAndWarmRows(t *testing.T) {
	cfg := smallConfig(1)
	b, err := NewShardedBackend(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b.WarmRows(context.Background())
	// Single-interest clauses take the cached conjunction path. Each query
	// goes to one shard in rotation, so 2·N queries ask every shard twice.
	clauses := [][]interest.ID{{1}, {3}}
	for k := 0; k < 2*b.NumShards(); k++ {
		b.UnionShare(context.Background(), clauses)
	}
	st := b.AudienceStats(context.Background())
	// Every shard served the same two queries: one miss then one hit each.
	if st.Prefix.Misses+st.Set.Misses == 0 {
		t.Fatalf("no misses recorded across shards: %+v", st)
	}
	if st.Prefix.Hits+st.Set.Hits == 0 {
		t.Fatalf("no hits recorded across shards: %+v", st)
	}
	if st.Prefix.Capacity != 3*b.shards[0].engine.Stats().Prefix.Capacity {
		t.Fatalf("capacity should fold across 3 shards: %+v", st)
	}
}
