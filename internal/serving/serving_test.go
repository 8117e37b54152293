package serving

import (
	"context"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// smallConfig is the property-test world: big enough to exercise the share
// machinery, small enough to build a world per replica in test time.
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

// TestShardedBackendConstructionErrors: the deprecated shim still refuses a
// topology with no shards.
func TestShardedBackendConstructionErrors(t *testing.T) {
	if _, err := NewShardedBackend(context.Background(), smallConfig(1), 0); err == nil {
		t.Fatal("0 shards should fail")
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
