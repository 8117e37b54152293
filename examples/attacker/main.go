// Attacker walkthrough: the end-to-end §5 attack from the adversary's
// perspective — learn a handful of a victim's interests, probe the Ads
// Manager for reach, and launch campaigns until one reaches only the victim.
//
//	go run ./examples/attacker
//
// The victim is a consenting panel user (as in the paper, where the targets
// were the authors themselves).
package main

import (
	"fmt"
	"log"

	"nanotarget"
)

func main() {
	log.SetFlags(0)

	cfg := nanotarget.DefaultWorldConfig()
	cfg.Population.Seed = 11
	cfg.Population.CatalogSize = 8000
	cfg.Population.PanelSize = 300
	cfg.Population.ProfileMedian = 120
	cfg.Population.Population = 2_800_000_000 // the 2020 worldwide base
	world, err := nanotarget.NewWorldFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}

	const victim = 5 // a panel index; any user the attacker can observe

	// Step 1 — the attacker infers some of the victim's interests (public
	// likes, conversations, shared links...). The paper argues a few tens
	// are realistically inferable since FB assigns hundreds.
	known, err := world.RandomInterestsOf(victim, 22, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attacker knows %d interests of the victim, e.g.:\n", len(known))
	for _, n := range known[:5] {
		fmt.Printf("  - %s\n", n)
	}

	// Step 2 — probe the Ads Manager: how does Potential Reach collapse as
	// the known interests are combined? (The floor hides the true size.)
	fmt.Printf("\n%-10s %15s\n", "interests", "potential reach")
	for _, n := range []int{1, 5, 9, 12, 18, 22} {
		reach, err := world.PotentialReach(known[:n])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %15d\n", n, reach)
	}

	// Step 3 — run the nested campaigns against the victim (the §5.1
	// protocol) and see which ones reached only them.
	report, err := world.RunNanotargeting(nanotarget.NanotargetingOptions{
		TargetIndices: []int{victim},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %-6s %9s %7s %9s\n", "interests", "seen", "reached", "cost", "success")
	for _, row := range report.Rows() {
		cost := "Free"
		if row.CostCents > 0 {
			cost = fmt.Sprintf("€%.2f", float64(row.CostCents)/100)
		}
		mark := ""
		if row.Nanotargeted {
			mark = "  ← nanotargeted"
		}
		fmt.Printf("%-10d %-6v %9d %7s %9v%s\n",
			row.Interests, row.Seen, row.Reached, cost, row.Nanotargeted, mark)
	}
	fmt.Println("\nwith 18+ known interests the ad lands exclusively on the victim's feed —")
	fmt.Println("for cents, without any PII (§5.2).")
}
