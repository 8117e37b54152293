// Package cliflags is the single flag surface for world construction: one
// RegisterWorldFlags call binds the shared -catalog/-panel/-seed/-workers/
// -cachecap/-cache-mode/-population flags straight into a worldcfg.Config,
// replacing the per-tool flag blocks the seven cmd tools used to duplicate.
// Per-tool differences (which flags exist, their defaults, their usage
// wording) are expressed with Options instead of copies.
package cliflags

import (
	"flag"
	"fmt"

	"nanotarget/internal/audience"
	"nanotarget/internal/worldcfg"
)

// The registrable flag names.
const (
	FlagCatalog    = "catalog"
	FlagPanel      = "panel"
	FlagSeed       = "seed"
	FlagWorkers    = "workers"
	FlagCacheCap   = "cachecap"
	FlagCacheMode  = "cache-mode"
	FlagPopulation = "population"
)

// defaultSet is what RegisterWorldFlags registers without options — the
// full shared surface of the study tools (cmd/uniqueness exposes exactly
// this set). FlagPopulation is opt-in via With.
var defaultSet = []string{
	FlagCatalog, FlagPanel, FlagSeed, FlagWorkers, FlagCacheCap, FlagCacheMode,
}

type registration struct {
	cfg     worldcfg.Config
	include map[string]bool
	usage   map[string]string
}

// Option adjusts which flags a tool registers, their defaults and wording.
type Option func(*registration)

// Defaults edits the configuration before flags bind to it, changing the
// registered flags' default values (e.g. cmd/fdvtrisk's 30k catalog / 200
// panel) and pre-setting fields no flag exposes (its 200 profile median).
func Defaults(mut func(cfg *worldcfg.Config)) Option {
	return func(r *registration) { mut(&r.cfg) }
}

// Without drops flags from the registered set (the tool keeps the config
// defaults for them).
func Without(names ...string) Option {
	return func(r *registration) {
		for _, n := range names {
			r.include[n] = false
		}
	}
}

// With adds optional flags (FlagPopulation) to the registered set.
func With(names ...string) Option {
	return func(r *registration) {
		for _, n := range names {
			r.include[n] = true
		}
	}
}

// Usage overrides one flag's help text (tools keep their historical
// wording, e.g. cmd/calibrate's "master seed").
func Usage(name, text string) Option {
	return func(r *registration) { r.usage[name] = text }
}

// RegisterWorldFlags registers the tool's world-construction flags on fs
// and returns the configuration they parse into. Read it after fs.Parse;
// hand it to nanotarget.NewWorldFromConfig or the serving constructors.
func RegisterWorldFlags(fs *flag.FlagSet, opts ...Option) *worldcfg.Config {
	r := &registration{
		cfg:     worldcfg.Default(),
		include: make(map[string]bool, len(defaultSet)),
		usage: map[string]string{
			FlagCatalog:    "interest catalog size",
			FlagPanel:      "panel size",
			FlagSeed:       "world seed",
			FlagWorkers:    "worker goroutines for collection and bootstrap (0 = one per core, 1 = sequential)",
			FlagCacheCap:   "audience cache capacity in ordered conjunctions (0 = default)",
			FlagCacheMode:  "audience cache contract: exact (byte-identical ordered path) or canonical (permutation-invariant set cache; bounded relative error)",
			FlagPopulation: "modeled user base",
		},
	}
	for _, n := range defaultSet {
		r.include[n] = true
	}
	for _, opt := range opts {
		opt(r)
	}
	cfg := &r.cfg
	reg := func(name string, bind func(usage string)) {
		if r.include[name] {
			bind(r.usage[name])
		}
	}
	reg(FlagCatalog, func(u string) { fs.IntVar(&cfg.Population.CatalogSize, FlagCatalog, cfg.Population.CatalogSize, u) })
	reg(FlagPanel, func(u string) { fs.IntVar(&cfg.Population.PanelSize, FlagPanel, cfg.Population.PanelSize, u) })
	reg(FlagSeed, func(u string) { fs.Uint64Var(&cfg.Population.Seed, FlagSeed, cfg.Population.Seed, u) })
	reg(FlagWorkers, func(u string) { fs.IntVar(&cfg.Parallelism, FlagWorkers, cfg.Parallelism, u) })
	reg(FlagCacheCap, func(u string) { fs.IntVar(&cfg.Cache.Capacity, FlagCacheCap, cfg.Cache.Capacity, u) })
	reg(FlagCacheMode, func(u string) { fs.Var(&modeValue{target: &cfg.Cache.Mode}, FlagCacheMode, u) })
	reg(FlagPopulation, func(u string) {
		fs.Int64Var(&cfg.Population.Population, FlagPopulation, cfg.Population.Population, u)
	})
	return cfg
}

// modeValue parses -cache-mode into an audience.Mode at flag-parse time, so
// a bad value fails with the usual flag diagnostics instead of after world
// construction started.
type modeValue struct{ target *audience.Mode }

func (v *modeValue) String() string {
	if v.target == nil {
		// The zero Value the flag package probes with: distinct from the
		// registered default so PrintDefaults shows the default.
		return ""
	}
	return v.target.String()
}

func (v *modeValue) Set(s string) error {
	m, err := audience.ParseMode(s)
	if err != nil {
		return fmt.Errorf("invalid cache mode %q (want exact or canonical)", s)
	}
	*v.target = m
	return nil
}
