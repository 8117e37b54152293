package worldcfg

import (
	"testing"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
)

func smallConfig() Config {
	cfg := Default()
	cfg.Population.Seed = 3
	cfg.Population.CatalogSize = 500
	cfg.Population.Population = 2_000_000
	cfg.Population.ActivityGrid = 32
	return cfg
}

func TestDefaultIsThePaperScale(t *testing.T) {
	cfg := Default()
	p := cfg.Population
	if p.Seed != 1 || p.CatalogSize != 98_982 || p.Population != 1_500_000_000 ||
		p.ActivityGrid != 512 || p.PanelSize != 2390 || p.ProfileMedian != 426 {
		t.Fatalf("Default() drifted from the paper scale: %+v", p)
	}
	if cfg.Cache.Disabled || cfg.Cache.Mode != audience.ModeExact {
		t.Fatalf("Default() cache params drifted: %+v", cfg.Cache)
	}
}

// TestBuildCatalogDeterminism: two builds of the same Config share a
// bit-identical catalog, and unrelated config fields don't perturb it.
func TestBuildCatalogDeterminism(t *testing.T) {
	cfg := smallConfig()
	a, err := cfg.BuildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	perturbed := cfg
	perturbed.Cache.Disabled = true
	perturbed.Parallelism = 7
	b, err := perturbed.BuildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != cfg.Population.CatalogSize || a.Len() != b.Len() {
		t.Fatalf("catalog sizes: %d, %d, want %d", a.Len(), b.Len(), cfg.Population.CatalogSize)
	}
	for id := interest.ID(1); int(id) < a.Len(); id += 37 {
		if a.Share(id) != b.Share(id) {
			t.Fatalf("interest %d share differs across identical configs", id)
		}
	}
}

// TestBuildModelPopulationOverride is the sharding invariant: a model built
// for a sub-range population has bit-identical shares to the full model —
// only Population() differs.
func TestBuildModelPopulationOverride(t *testing.T) {
	cfg := smallConfig()
	cat, err := cfg.BuildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	full, err := cfg.BuildModel(cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Population() != cfg.Population.Population {
		t.Fatalf("BuildModel(cat, 0) population = %d, want %d", full.Population(), cfg.Population.Population)
	}
	part, err := cfg.BuildModel(cat, 12_345)
	if err != nil {
		t.Fatal(err)
	}
	if part.Population() != 12_345 {
		t.Fatalf("override population = %d, want 12345", part.Population())
	}
	clauses := [][]interest.ID{{1, 2}, {3}, {40, 41, 42}}
	if full.UnionConjunctionShare(clauses) != part.UnionConjunctionShare(clauses) {
		t.Fatal("share depends on population size — calibration must be share-based")
	}
}

func TestNewEngineHonorsCacheParams(t *testing.T) {
	cfg := smallConfig()
	cfg.Cache.Mode = audience.ModeCanonical
	cat, err := cfg.BuildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	model, err := cfg.BuildModel(cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := cfg.NewEngine(model)
	if e.Model() != model {
		t.Fatal("engine not wired to the model")
	}
	if e.Mode() != audience.ModeCanonical {
		t.Fatalf("engine mode = %v, want canonical", e.Mode())
	}
}
