// Package worldcfg holds the grouped world-construction configuration shared
// by the public facade (nanotarget.WorldConfig is an alias of Config), the
// cmd flag surface (internal/cliflags) and the serving tier
// (internal/serving): one struct describes a world, and every layer — a
// single in-process world, a CLI tool, or a serving replica — builds from
// it.
//
// The package also owns the construction steps whose bit-level behaviour the
// repo's determinism contract depends on: catalog generation is derived from
// the master seed via the "catalog" label, and the population model is a
// pure function of the catalog and PopulationParams, so every build of one
// Config is the same world bit for bit. That is what makes every serving
// replica's answers the single world's (see internal/serving).
package worldcfg

import (
	"fmt"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

// PopulationParams describes the synthetic Facebook the world models: the
// interest ecosystem, the calibrated user base and the research panel drawn
// from it.
type PopulationParams struct {
	// Seed is the master seed; identical seeds produce bit-identical worlds.
	Seed uint64
	// CatalogSize is the number of interests (the paper's dataset: 98,982).
	CatalogSize int
	// Population is the modeled user-base size (1.5e9 = the paper's 2017
	// top-50-country base; the 2020 experiment used 2.8e9).
	Population int64
	// ActivitySigma overrides the calibrated activity spread when > 0
	// (0 keeps population.DefaultConfig's calibrated value).
	ActivitySigma float64
	// ActivityGrid is the quadrature resolution when > 0 (0 keeps the
	// package default, 512).
	ActivityGrid int
	// PanelSize is the FDVT panel size (the paper's: 2,390).
	PanelSize int
	// ProfileMedian is the median interests-per-panel-user (the paper's: 426).
	ProfileMedian float64
}

// CacheParams describes the audience-query cache in front of the model.
type CacheParams struct {
	// Disabled reproduces the pre-engine behaviour: every audience
	// evaluation recomputes the full activity-grid product. Results are
	// byte-identical either way; only wall time changes.
	Disabled bool
	// Capacity is how many ordered conjunctions (with their survivor
	// weights) the cache retains (0 = audience.DefaultCapacity).
	Capacity int
	// Mode selects the caching contract: audience.ModeExact (byte-identical
	// ordered path) or audience.ModeCanonical (permutation-invariant
	// set-level cache within audience.MaxCanonicalRelativeError).
	Mode audience.Mode
}

// Config is the complete world-construction configuration.
type Config struct {
	Population PopulationParams
	Cache      CacheParams
	// Parallelism is the worker count for studies and experiments
	// (0 = one per core, 1 = sequential). Results are byte-identical for
	// any value under a fixed seed. World construction does not read it:
	// the catalog's quantile transform (BuildCatalog), the span of the
	// model's share table and its per-interest rates (BuildModel), and each
	// count table the panel first touches run in blocks on GOMAXPROCS
	// goroutines whatever this field holds, and every build is
	// byte-identical at any GOMAXPROCS.
	Parallelism int
}

// Default returns the paper's full-scale configuration.
func Default() Config {
	return Config{
		Population: PopulationParams{
			Seed:          1,
			CatalogSize:   98_982,
			Population:    1_500_000_000,
			ActivitySigma: 0, // 0 = package default
			ActivityGrid:  population.DefaultActivityGridSize,
			PanelSize:     2390,
			ProfileMedian: 426,
		},
	}
}

// Root returns the master random generator of the configured world. Every
// substream (catalog, panel, studies) derives from it by label.
func (c Config) Root() *rng.Rand { return rng.New(c.Population.Seed) }

// BuildCatalog generates the interest catalog. The generator stream is
// derived from the master seed with the "catalog" label, so any two builds
// of the same Config — and of two Configs differing only outside
// PopulationParams.{Seed,CatalogSize,Population} — share a bit-identical
// catalog.
func (c Config) BuildCatalog() (*interest.Catalog, error) {
	icfg := interest.DefaultConfig()
	icfg.Size = c.Population.CatalogSize
	icfg.Population = c.Population.Population
	cat, err := interest.Generate(icfg, c.Root().Derive("catalog"))
	if err != nil {
		return nil, fmt.Errorf("worldcfg: building catalog: %w", err)
	}
	return cat, nil
}

// BuildModel calibrates a population model of the configured user base over
// cat.
func (c Config) BuildModel(cat *interest.Catalog) (*population.Model, error) {
	pcfg := population.DefaultConfig(cat)
	pcfg.Population = c.Population.Population
	if c.Population.ActivitySigma > 0 {
		pcfg.ActivitySigma = c.Population.ActivitySigma
	}
	if c.Population.ActivityGrid > 0 {
		pcfg.ActivityGridSize = c.Population.ActivityGrid
	}
	model, err := population.NewModel(pcfg)
	if err != nil {
		return nil, fmt.Errorf("worldcfg: building population model: %w", err)
	}
	return model, nil
}

// NewEngine builds the audience engine described by CacheParams over model.
func (c Config) NewEngine(model *population.Model) *audience.Engine {
	return audience.New(model, audience.Options{
		Capacity: c.Cache.Capacity,
		Mode:     c.Cache.Mode,
		Disabled: c.Cache.Disabled,
	})
}
