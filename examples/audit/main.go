// Privacy audit: the defender's view (§6). Inspect a user's ad-preference
// profile with the FDVT risk scale, delete the identifying interests, and
// measure how much harder nanotargeting becomes.
//
//	go run ./examples/audit
package main

import (
	"fmt"
	"log"

	"nanotarget"
)

func main() {
	log.SetFlags(0)

	cfg := nanotarget.DefaultWorldConfig()
	cfg.Population.Seed = 23
	cfg.Population.CatalogSize = 8000
	cfg.Population.PanelSize = 300
	cfg.Population.ProfileMedian = 120
	world, err := nanotarget.NewWorldFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	const user = 3

	// Before: the FDVT "Risks of my FB interests" view, rarest first.
	rows, err := world.InterestRisk(user)
	if err != nil {
		log.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range rows {
		count[r.Risk]++
	}
	fmt.Printf("profile of panel user %d: %d interests\n", user, len(rows))
	fmt.Printf("risk levels: %d red, %d orange, %d yellow, %d green\n\n",
		count["red"], count["orange"], count["yellow"], count["green"])
	fmt.Println("most identifying interests (the nanotargeting attack surface):")
	for i, r := range rows {
		if i == 5 {
			break
		}
		fmt.Printf("  [%-6s] %-40s audience %d\n", r.Risk, r.Interest, r.AudienceSize)
	}

	// Attack the unhardened profile.
	before, err := world.PotentialReach(names(rows, 10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreach of the user's 10 rarest interests before cleanup: %d (floored at 20)\n", before)

	// One click: remove everything red and orange (§6's guided cleanup).
	removed, err := world.RemoveRiskyInterests(user, "orange")
	if err != nil {
		log.Fatal(err)
	}
	after, err := world.InterestRisk(user)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nremoved %d high/medium-risk interests; %d remain\n", removed, len(after))
	if len(after) > 0 {
		fmt.Printf("rarest remaining interest audience: %d (was %d)\n",
			after[0].AudienceSize, rows[0].AudienceSize)
		k := 10
		if len(after) < k {
			k = len(after)
		}
		reach, err := world.PotentialReach(names(after, k))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reach of the %d rarest remaining interests: %d\n", k, reach)
	}
	fmt.Println("\nevery remaining interest now has a six-figure-plus audience —")
	fmt.Println("an attacker needs far more knowledge to single this user out.")
}

func names(rows []nanotarget.RiskRow, k int) []string {
	if k > len(rows) {
		k = len(rows)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = rows[i].Interest
	}
	return out
}
