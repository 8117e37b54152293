package audience

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

func testModel(t testing.TB) *population.Model {
	t.Helper()
	icfg := interest.DefaultConfig()
	icfg.Size = 2000
	cat, err := interest.Generate(icfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := population.DefaultConfig(cat)
	pcfg.ActivityGridSize = 128
	m, err := population.NewModel(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomConjunctions draws n conjunctions of up to maxLen distinct interests.
func randomConjunctions(m *population.Model, n, maxLen int, r *rng.Rand) [][]interest.ID {
	out := make([][]interest.ID, n)
	for i := range out {
		k := 1 + r.Intn(maxLen)
		ids := make([]interest.ID, k)
		seen := map[interest.ID]bool{}
		for j := 0; j < k; j++ {
			id := interest.ID(r.Intn(m.Catalog().Len()))
			for seen[id] {
				id = interest.ID(r.Intn(m.Catalog().Len()))
			}
			seen[id] = true
			ids[j] = id
		}
		out[i] = ids
	}
	return out
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestConjunctionShareMatchesModelBits is the core contract: cached results
// are bit-identical to direct model evaluation, including when served via
// incremental extension of a previously cached prefix.
func TestConjunctionShareMatchesModelBits(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	r := rng.New(11)
	conjs := randomConjunctions(m, 200, 25, r)
	// Evaluate twice: the first pass populates (miss paths), the second is
	// served from cache (hit paths). Both must match the model bitwise.
	for pass := 0; pass < 2; pass++ {
		for i, ids := range conjs {
			want := m.ConjunctionShare(ids)
			got := eng.ConjunctionShare(ids)
			if !sameBits(want, got) {
				t.Fatalf("pass %d conj %d: engine %v != model %v", pass, i, got, want)
			}
		}
	}
	st := eng.Stats()
	if st.Prefix.Hits == 0 {
		t.Fatal("second pass should have hit the prefix cache")
	}
}

// TestPrefixExtensionReusesCachedState checks that extending a cached
// conjunction produces the same bits as evaluating the long conjunction
// from scratch.
func TestPrefixExtensionReusesCachedState(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	base := []interest.ID{3, 141, 59, 265, 358, 979, 323, 846}
	eng.ConjunctionShare(base) // cache base
	hitsBefore := eng.Stats().Prefix.Hits
	ext := append(append([]interest.ID{}, base...), 1414, 213)
	if got, want := eng.ConjunctionShare(ext), m.ConjunctionShare(ext); !sameBits(got, want) {
		t.Fatalf("extended conjunction: engine %v != model %v", got, want)
	}
	if eng.Stats().Prefix.Hits <= hitsBefore {
		t.Fatal("extension should have hit the cached base prefix")
	}
}

// TestExactMissStoresOnlyAskedConjunction checks the miss path's storage
// rule: an 18-interest miss on a cold engine leaves exactly one entry (the
// asked conjunction, not its 17 proper prefixes), and a grow-by-one
// follow-up resumes that entry — one hit, one miss, one new entry — with
// bits identical to the uncached model.
func TestExactMissStoresOnlyAskedConjunction(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	var ids []interest.ID
	for i := range 19 {
		ids = append(ids, interest.ID(7+97*i)) // distinct, inside the 2000-interest catalog
	}
	asked, next := ids[:18], ids[:19]
	if got, want := eng.ConjunctionShare(asked), m.ConjunctionShare(asked); !sameBits(got, want) {
		t.Fatalf("18-interest miss: engine %v != model %v", got, want)
	}
	st := eng.Stats().Prefix
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after one 18-interest miss: %+v, want exactly one entry", st)
	}
	for d := 1; d < len(asked); d++ {
		if _, ok := eng.cache.seek(AppendKey(nil, asked[:d])); ok {
			t.Fatalf("proper prefix of length %d was cached", d)
		}
	}
	if got, want := eng.ConjunctionShare(next), m.ConjunctionShare(next); !sameBits(got, want) {
		t.Fatalf("grow-by-one follow-up: engine %v != model %v", got, want)
	}
	st = eng.Stats().Prefix
	if st.Entries != 2 || st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("follow-up did not resume the cached 18-interest entry: %+v", st)
	}
}

func TestPrefixSharesMatchesIncrementalQuery(t *testing.T) {
	m := testModel(t)
	for _, eng := range []*Engine{Cached(m), Disabled(m)} {
		ids := []interest.ID{17, 1999, 512, 256, 33, 777}
		got := eng.PrefixShares(ids)
		q := m.NewQuery()
		for i, id := range ids {
			q.And(id)
			if !sameBits(got[i], q.Share()) {
				t.Fatalf("enabled=%v prefix %d: %v != %v", eng.Enabled(), i+1, got[i], q.Share())
			}
		}
		// A second call must be pure cache (when enabled) and still identical.
		again := eng.PrefixShares(ids)
		for i := range got {
			if !sameBits(got[i], again[i]) {
				t.Fatalf("enabled=%v prefix %d drifted across calls", eng.Enabled(), i+1)
			}
		}
	}
}

// TestUnionShareMatchesModelBits checks both the pure-conjunction fast path
// and the general union fallback against the model.
func TestUnionShareMatchesModelBits(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	cases := [][][]interest.ID{
		{{1}, {2}, {3}},                   // pure conjunction -> cached path
		{{1, 2}, {3}},                     // genuine union -> direct path
		{{42}},                            // single clause
		{{100, 200, 300}, {400}, {1500}},  // mixed
		{{7}, {8}, {9}, {10}, {11}, {12}}, // longer pure conjunction
	}
	for pass := 0; pass < 2; pass++ {
		for i, clauses := range cases {
			want := m.UnionConjunctionShare(clauses)
			got := eng.UnionShare(clauses)
			if !sameBits(want, got) {
				t.Fatalf("pass %d case %d: engine %v != model %v", pass, i, got, want)
			}
		}
	}
}

func TestRealizeAudienceMatchesModelBits(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	ids := []interest.ID{5, 10, 15, 20, 25}
	f := population.DemoFilter{Countries: []string{"ES"}}
	for i := 0; i < 3; i++ {
		want := m.RealizeAudience(f, ids, rng.New(99))
		got := eng.RealizeAudience(f, ids, rng.New(99))
		if want != got {
			t.Fatalf("iter %d: engine %d != model %d", i, got, want)
		}
	}
	if want, got := m.ExpectedAudienceConditional(f, ids), eng.ExpectedAudienceConditional(f, ids); !sameBits(want, got) {
		t.Fatalf("conditional audience: engine %v != model %v", got, want)
	}
	if want, got := m.ExpectedAudience(f, ids), eng.ExpectedAudience(f, ids); !sameBits(want, got) {
		t.Fatalf("expected audience: engine %v != model %v", got, want)
	}
}

func TestEvalBatchMatchesSequential(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	conjs := randomConjunctions(m, 300, 12, rng.New(23))
	seq := make([]float64, len(conjs))
	for i, ids := range conjs {
		seq[i] = m.ConjunctionShare(ids)
	}
	for _, workers := range []int{1, 4, 0} {
		got := eng.EvalBatch(conjs, workers)
		for i := range seq {
			if !sameBits(seq[i], got[i]) {
				t.Fatalf("workers=%d conj %d: %v != %v", workers, i, got[i], seq[i])
			}
		}
	}
}

// TestConcurrentMixedAccess hammers one engine from many goroutines with
// overlapping prefixes; run under -race this is the engine's thread-safety
// gate. Every goroutine must observe model-identical bits.
func TestConcurrentMixedAccess(t *testing.T) {
	m := testModel(t)
	// Small: a miss inserts one entry, so 60 distinct conjunctions must
	// overflow 8 entries per shard.
	eng := New(m, Options{Capacity: 32, Shards: 4})
	conjs := randomConjunctions(m, 60, 25, rng.New(31))
	want := make([]float64, len(conjs))
	for i, ids := range conjs {
		want[i] = m.ConjunctionShare(ids)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, ids := range conjs {
					if got := eng.ConjunctionShare(ids); !sameBits(got, want[i]) {
						errc <- errMismatch(g, i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := eng.Stats().Prefix
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with capacity 32, got stats %+v", st)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("cache overflowed: %+v", st)
	}
}

// TestEveryLevelStaysWithinCapacity overfills the prefix, set and demo
// levels of a canonical engine from several goroutines. The levels' maps
// start empty and grow as entries arrive, so this is the check that each
// still evicts at its bound: every level must report evictions and no more
// entries than its capacity, and every answer must keep the model's bits.
func TestEveryLevelStaysWithinCapacity(t *testing.T) {
	m := testModel(t)
	eng := New(m, Options{Mode: ModeCanonical, Capacity: 32, SetCapacity: 32, DemoCapacity: 32, Shards: 4})
	conjs := randomConjunctions(m, 80, 12, rng.New(37))
	filters := []population.DemoFilter{
		{Countries: []string{"ES"}},
		{Countries: []string{"US", "FR"}, AgeMin: 20, AgeMax: 39},
	}
	wantShare := make([]float64, len(conjs))
	wantCond := make([][]float64, len(conjs))
	for i, ids := range conjs {
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		wantShare[i] = m.ConjunctionShare(sorted)
		for _, f := range filters {
			wantCond[i] = append(wantCond[i], m.ExpectedAudienceConditional(f, sorted))
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, ids := range conjs {
					if got := eng.ConjunctionShare(ids); !sameBits(got, wantShare[i]) {
						errc <- errMismatch(g, i, got, wantShare[i])
						return
					}
					for fi, f := range filters {
						if got := eng.ExpectedAudienceConditional(f, ids); !sameBits(got, wantCond[i][fi]) {
							errc <- errMismatch(g, i, got, wantCond[i][fi])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := eng.Stats()
	for _, level := range []struct {
		name string
		st   LevelStats
	}{{"prefix", st.Prefix}, {"set", st.Set}, {"demo", st.Demo}} {
		if level.st.Capacity != 32 {
			t.Fatalf("%s level: capacity %d, want 32", level.name, level.st.Capacity)
		}
		if level.st.Evictions == 0 {
			t.Fatalf("%s level: no evictions after overfilling it: %+v", level.name, level.st)
		}
		if level.st.Entries > level.st.Capacity {
			t.Fatalf("%s level overflowed: %+v", level.name, level.st)
		}
	}
}

func errMismatch(g, i int, got, want float64) error {
	return fmt.Errorf("goroutine %d conj %d: engine %v != model %v", g, i, got, want)
}

func TestStatsAndReset(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	if st := eng.Stats().Total(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("fresh engine has non-zero stats: %+v", st)
	}
	ids := []interest.ID{1, 2, 3}
	eng.ConjunctionShare(ids)
	eng.ConjunctionShare(ids)
	st := eng.Stats().Prefix
	if st.Misses == 0 || st.Hits == 0 || st.Entries != 1 {
		t.Fatalf("unexpected stats after two evaluations: %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Fatalf("hit rate out of range: %v", st.HitRate())
	}
	eng.Reset()
	if st := eng.Stats().Total(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("reset did not clear stats: %+v", st)
	}
	// Disabled engines report zero stats and still answer correctly.
	dis := Disabled(m)
	if got, want := dis.ConjunctionShare(ids), m.ConjunctionShare(ids); !sameBits(got, want) {
		t.Fatal("disabled engine diverged from model")
	}
	if st := dis.Stats(); st != (Stats{}) {
		t.Fatalf("disabled engine has stats: %+v", st)
	}
	if dis.Enabled() {
		t.Fatal("disabled engine claims to be enabled")
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	if got, want := eng.ConjunctionShare(nil), m.ConjunctionShare(nil); !sameBits(got, want) {
		t.Fatalf("empty conjunction: %v != %v", got, want)
	}
	if out := eng.PrefixShares(nil); out != nil {
		t.Fatalf("PrefixShares(nil) = %v, want nil", out)
	}
	if out := eng.EvalBatch(nil, 0); len(out) != 0 {
		t.Fatalf("EvalBatch(nil) = %v, want empty", out)
	}
	// Repeated interests are legal (idempotent filters) and must match.
	dup := []interest.ID{9, 9, 9}
	if got, want := eng.ConjunctionShare(dup), m.ConjunctionShare(dup); !sameBits(got, want) {
		t.Fatalf("duplicate-interest conjunction: %v != %v", got, want)
	}
}

// TestCanonicalSetLevel exercises the set cache's mechanics: permuted
// re-probes hit one entry, the caller's slice is never mutated, duplicates
// keep their multiplicity, and UnionShare's pure-conjunction path follows
// the mode.
func TestCanonicalSetLevel(t *testing.T) {
	m := testModel(t)
	eng := Canonical(m)
	if eng.Mode() != ModeCanonical {
		t.Fatal("Canonical() engine reports wrong mode")
	}
	ids := []interest.ID{900, 3, 512, 77, 1999}
	orig := append([]interest.ID{}, ids...)
	want := m.ConjunctionShare([]interest.ID{3, 77, 512, 900, 1999}) // sorted order
	if got := eng.ConjunctionShare(ids); !sameBits(got, want) {
		t.Fatalf("canonical share %v != sorted-order model share %v", got, want)
	}
	for i := range ids {
		if ids[i] != orig[i] {
			t.Fatal("ConjunctionShare mutated the caller's slice")
		}
	}
	if got := eng.ConjunctionShare([]interest.ID{1999, 900, 512, 77, 3}); !sameBits(got, want) {
		t.Fatal("reversed probe diverged")
	}
	st := eng.Stats()
	if st.Set.Hits == 0 || st.Set.Entries == 0 {
		t.Fatalf("reversed probe should hit the set level: %+v", st)
	}
	// Duplicates are multiplicity-preserving, exactly like the model.
	dup := []interest.ID{9, 9, 3}
	if got, want := eng.ConjunctionShare(dup), m.ConjunctionShare([]interest.ID{3, 9, 9}); !sameBits(got, want) {
		t.Fatalf("duplicate conjunction: %v != %v", got, want)
	}
	// UnionShare pure-conjunction path is permutation-invariant too;
	// genuine unions stay on the direct path in both modes.
	u1 := eng.UnionShare([][]interest.ID{{42}, {7}, {1000}})
	u2 := eng.UnionShare([][]interest.ID{{1000}, {42}, {7}})
	if !sameBits(u1, u2) {
		t.Fatal("pure-conjunction UnionShare not permutation-invariant in canonical mode")
	}
	clauses := [][]interest.ID{{1, 2}, {3}}
	if got, want := eng.UnionShare(clauses), m.UnionConjunctionShare(clauses); !sameBits(got, want) {
		t.Fatalf("genuine union diverged from model: %v != %v", got, want)
	}
}

// TestDemoLevelMemoization checks the demographic level: DemoShare and the
// composite-keyed conditional are served from cache with bit-identical
// values, and filter-only entries never alias composite entries.
func TestDemoLevelMemoization(t *testing.T) {
	m := testModel(t)
	eng := Cached(m)
	f := population.DemoFilter{Countries: []string{"ES", "FR"}, AgeMin: 20, AgeMax: 39}
	want := m.DemoShare(f)
	for pass := 0; pass < 3; pass++ {
		if got := eng.DemoShare(f); !sameBits(got, want) {
			t.Fatalf("pass %d: DemoShare %v != model %v", pass, got, want)
		}
	}
	st := eng.Stats()
	if st.Demo.Hits < 2 || st.Demo.Entries == 0 {
		t.Fatalf("DemoShare not memoized: %+v", st)
	}
	// The conditional over (f, nil) equals pop·demoShare — a different value
	// than DemoShare(f); the kind tag must keep the entries apart.
	condWant := m.ExpectedAudienceConditional(f, nil)
	if got := eng.ExpectedAudienceConditional(f, nil); !sameBits(got, condWant) {
		t.Fatalf("conditional over empty conjunction: %v != %v", got, condWant)
	}
	if got := eng.DemoShare(f); !sameBits(got, want) {
		t.Fatal("DemoShare aliased by the composite entry")
	}
	// Composite hits must repeat bit-identically.
	ids := []interest.ID{11, 22, 33}
	first := eng.ExpectedAudienceConditional(f, ids)
	if want := m.ExpectedAudienceConditional(f, ids); !sameBits(first, want) {
		t.Fatalf("composite conditional %v != model %v", first, want)
	}
	if again := eng.ExpectedAudienceConditional(f, ids); !sameBits(again, first) {
		t.Fatal("composite hit drifted")
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"exact", ModeExact, true},
		{"canonical", ModeCanonical, true},
		{"", ModeExact, false},
		{"Canonical", ModeExact, false},
	} {
		got, err := ParseMode(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseMode(%q) = (%v, %v), want (%v, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
	if ModeExact.String() != "exact" || ModeCanonical.String() != "canonical" {
		t.Error("Mode.String names drifted from the flag vocabulary")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	cases := [][]interest.ID{
		nil,
		{0},
		{1, 2, 3},
		{0xFFFFFFFF, 0, 42},
		{7, 7, 7},
	}
	for _, ids := range cases {
		key := Key(ids)
		back, err := DecodeKey([]byte(key))
		if err != nil {
			t.Fatalf("decode %v: %v", ids, err)
		}
		if len(back) != len(ids) {
			t.Fatalf("round trip of %v lost length: %v", ids, back)
		}
		for i := range ids {
			if back[i] != ids[i] {
				t.Fatalf("round trip of %v = %v", ids, back)
			}
		}
	}
	// Order must be preserved, not canonicalized away.
	if Key([]interest.ID{1, 2}) == Key([]interest.ID{2, 1}) {
		t.Fatal("key encoding must preserve order")
	}
	if _, err := DecodeKey([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged key should not decode")
	}
}

// BenchmarkNewEngine measures building an engine with the default options,
// which every replica and the API process do once at start-up. Its cost is
// the cache levels' shard maps, which start empty and grow as entries
// arrive.
func BenchmarkNewEngine(b *testing.B) {
	m := testModel(b)
	for _, mode := range []Mode{ModeExact, ModeCanonical} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				New(m, Options{Mode: mode})
			}
		})
	}
}
