// Quickstart: build a small world, reproduce the paper's two headline
// results, and print them.
//
//	go run ./examples/quickstart
//
// Uses a scaled-down world (8k interests, 400 panel users) so it finishes in
// a couple of seconds; run cmd/uniqueness and cmd/nanotarget for the
// full-scale reproduction.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"nanotarget"
)

func main() {
	log.SetFlags(0)

	// A deterministic synthetic Facebook: interest ecosystem calibrated to
	// the paper's Fig 2, a research panel shaped like the paper's §3
	// dataset, and 1.5B modeled users.
	cfg := nanotarget.DefaultWorldConfig()
	cfg.Population.Seed = 42
	cfg.Population.CatalogSize = 8000
	cfg.Population.PanelSize = 400
	cfg.Population.ProfileMedian = 120
	world, err := nanotarget.NewWorldFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(world.DescribePanel())
	fmt.Println()

	// Contribution 1 (§4): how many interests make a user unique?
	study, err := world.EstimateUniqueness(nanotarget.UniquenessOptions{
		BootstrapIters: 300,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := study.WriteTable1(os.Stdout); err != nil {
		log.Fatal(err)
	}
	lp, _ := study.Estimate("LP", 0.9)
	r, _ := study.Estimate("R", 0.9)
	fmt.Printf("\n→ %d rarest interests identify a user with 90%% probability;\n",
		int(math.Ceil(lp.NP)))
	fmt.Printf("  a random attacker needs ~%d interests for the same odds.\n\n",
		int(math.Ceil(r.NP)))

	// Contribution 2 (§5): nanotargeting is systematically feasible.
	report, err := world.RunNanotargeting(nanotarget.NanotargetingOptions{})
	if err != nil {
		log.Fatal(err)
	}
	succ, total := report.SuccessesWithAtLeast(18)
	fmt.Printf("nanotargeting experiment: %d campaigns, %d successes\n",
		len(report.Rows()), report.Successes)
	fmt.Printf("→ %d of %d campaigns with 18+ interests reached ONLY their target\n",
		succ, total)
	fmt.Printf("→ the successful campaigns cost €%.2f in total\n",
		float64(report.SuccessCostCents)/100)
}
