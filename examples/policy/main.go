// Platform policy evaluation: what should Facebook change? (§8.3)
// Replays nanotargeting attacks under each proposed countermeasure and
// prints how the attack success rate collapses.
//
//	go run ./examples/policy
package main

import (
	"fmt"
	"log"

	"nanotarget"
)

func main() {
	log.SetFlags(0)

	cfg := nanotarget.DefaultWorldConfig()
	cfg.Population.Seed = 31
	cfg.Population.CatalogSize = 8000
	cfg.Population.PanelSize = 300
	cfg.Population.ProfileMedian = 120
	world, err := nanotarget.NewWorldFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A strong attacker: 20 random interests per victim (well past N_0.8).
	outcomes, err := world.EvaluatePolicies(nanotarget.PolicyOptions{
		Victims:           60,
		InterestCount:     20,
		Trials:            5,
		MaxInterestsLimit: 8,
		MinAudienceLimits: []int64{100, 1000},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("nanotargeting attack success under §8.3 countermeasures")
	fmt.Printf("%-42s %8s %8s %9s\n", "policy", "success", "blocked", "attacks")
	for _, o := range outcomes {
		fmt.Printf("%-42s %7.1f%% %7.1f%% %9d\n",
			o.Policy, o.SuccessRate*100, o.BlockRate*100, o.Attacks)
	}

	fmt.Println(`
reading the table:
  - with no policy, a 20-interest attacker succeeds most of the time;
  - capping audience definitions below 9 interests (a one-line platform
    change) collapses the success rate;
  - refusing campaigns whose ACTIVE audience is under 1000 stops every
    attack outright — including the Custom-Audience variants the interest
    cap cannot see (§8.3).`)
}
