// Command calibrate sweeps world-model parameters and reports the resulting
// Table 1 estimates (N_P for LP and Random selection) against the paper's
// published values. It is the tool used to pick the default ActivitySigma in
// population.DefaultConfig; see DESIGN.md §5.
//
// Usage:
//
//	calibrate [-catalog N] [-panel N] [-sigmas 1.2,1.55,1.9] [-boot N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"nanotarget/internal/cliflags"
	"nanotarget/internal/core"
	"nanotarget/internal/fdvt"
	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	cfg := cliflags.RegisterWorldFlags(flag.CommandLine,
		cliflags.Without(cliflags.FlagCacheCap, cliflags.FlagCacheMode),
		cliflags.Usage(cliflags.FlagCatalog, "catalog size"),
		cliflags.Usage(cliflags.FlagSeed, "master seed"))
	var (
		sigmas  = flag.String("sigmas", "1.12", "comma-separated ActivitySigma values to sweep")
		boot    = flag.Int("boot", 200, "bootstrap iterations per estimate")
		psigma  = flag.Float64("psigma", 1.15, "panel profile-size log-sigma")
		mixture = flag.Float64("mixture", 0.05, "panel small-profile mixture weight")
	)
	flag.Parse()

	var sigmaVals []float64
	for _, s := range strings.Split(*sigmas, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			log.Fatalf("bad sigma %q: %v", s, err)
		}
		sigmaVals = append(sigmaVals, v)
	}

	root := rng.New(cfg.Population.Seed)
	icfg := interest.DefaultConfig()
	icfg.Size = cfg.Population.CatalogSize
	start := time.Now()
	cat, err := interest.Generate(icfg, root.Derive("catalog"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d interests in %v\n", cat.Len(), time.Since(start).Round(time.Millisecond))

	paper := map[string][4]float64{
		"LP": {2.74, 3.96, 4.16, 5.89},
		"R":  {11.41, 17.31, 22.21, 26.98},
	}

	for _, sigma := range sigmaVals {
		start = time.Now()
		pcfg := population.DefaultConfig(cat)
		pcfg.ActivitySigma = sigma
		model, err := population.NewModel(pcfg)
		if err != nil {
			log.Fatal(err)
		}
		fcfg := fdvt.DefaultPanelConfig(model)
		fcfg.Size = cfg.Population.PanelSize
		fcfg.ProfileSigma = *psigma
		fcfg.RareMixture = *mixture
		panel, err := fdvt.BuildPanel(fcfg, root.Derive(fmt.Sprintf("panel/%.3f", sigma)))
		if err != nil {
			log.Fatal(err)
		}
		st := panel.Describe()
		fmt.Printf("\nsigma=%.3f  built in %v\n  %s\n", sigma, time.Since(start).Round(time.Millisecond), st)

		scfg := core.DefaultStudyConfig(root.Derive(fmt.Sprintf("study/%.3f", sigma)))
		scfg.BootstrapIters = *boot
		scfg.Parallelism = cfg.Parallelism
		start = time.Now()
		res, err := core.RunStudy(panel.Users, core.NewModelSource(model), scfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  study in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("  %-4s %-5s %8s %8s %18s %6s\n", "sel", "P", "N_P", "paper", "95% CI", "R2")
		for _, row := range res.Rows {
			e := row.Estimate
			idx := map[float64]int{0.5: 0, 0.8: 1, 0.9: 2, 0.95: 3}[e.P]
			fmt.Printf("  %-4s %-5.2f %8.2f %8.2f (%7.2f,%7.2f) %6.3f\n",
				row.Strategy, e.P, e.NP, paper[row.Strategy][idx], e.CI.Lo, e.CI.Hi, e.R2)
		}
		for _, strat := range []string{"LP", "R"} {
			vas50 := res.Samples[strat].VAS(0.5)
			fmt.Printf("  VAS(50) %s:", strat)
			for i := 0; i < len(vas50); i += 4 {
				fmt.Printf(" N%d=%.3g", i+1, vas50[i])
			}
			fmt.Println()
		}
	}
	os.Exit(0)
}
