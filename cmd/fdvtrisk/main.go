// Command fdvtrisk demonstrates the §6 FDVT defense: the "Risks of my FB
// interests" view (Fig 7) for a panel user — interests sorted by audience
// size with the red/orange/yellow/green color code — and the effect of
// one-click removal on the user's exposure to nanotargeting.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"nanotarget"
	"nanotarget/internal/cliflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdvtrisk: ")
	cfg := cliflags.RegisterWorldFlags(flag.CommandLine,
		cliflags.Without(cliflags.FlagCacheCap),
		cliflags.Defaults(func(c *nanotarget.WorldConfig) {
			c.Population.CatalogSize = 30_000
			c.Population.PanelSize = 200
			c.Population.ProfileMedian = 200
		}),
		cliflags.Usage(cliflags.FlagWorkers, "worker goroutines for the panel scan (0 = one per core, 1 = sequential)"))
	var (
		user  = flag.Int("user", 0, "panel index of the inspected user")
		level = flag.String("remove", "orange", "severity to remove: red, orange or yellow (empty = only show)")
		show  = flag.Int("show", 15, "rows of the risk table to display")
		scan  = flag.Bool("scan", false, "also risk-scan the whole panel and print the operator summary")
		slice = flag.Bool("slice", false, "with -scan: also score each user inside their own demographic slice (the \u00a79 attacker view)")
	)
	flag.Parse()

	start := time.Now()
	w, err := nanotarget.NewWorldFromConfig(*cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world built in %v\n\n", time.Since(start).Round(time.Millisecond))

	rows, err := w.InterestRisk(*user)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Risk]++
	}
	fmt.Printf("Risks of my FB interests — panel user %d (%d interests)\n", *user, len(rows))
	fmt.Printf("red: %d  orange: %d  yellow: %d  green: %d\n\n",
		counts["red"], counts["orange"], counts["yellow"], counts["green"])
	fmt.Printf("%-8s %-45s %14s\n", "RISK", "INTEREST", "AUDIENCE")
	for i, r := range rows {
		if i >= *show {
			fmt.Printf("... %d more\n", len(rows)-*show)
			break
		}
		fmt.Printf("%-8s %-45s %14d\n", r.Risk, clip(r.Interest, 45), r.AudienceSize)
	}

	if *scan {
		start = time.Now()
		sum, err := w.PanelRisk()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npanel risk scan (%d users, %d interests scored) in %v\n",
			sum.Users, sum.Interests, time.Since(start).Round(time.Millisecond))
		fmt.Printf("red: %d  orange: %d  yellow: %d  green: %d\n",
			sum.ByLevel["red"], sum.ByLevel["orange"], sum.ByLevel["yellow"], sum.ByLevel["green"])
		fmt.Printf("%d users hold at least one red interest (max %d on one profile)\n",
			sum.UsersWithRed, sum.MaxRedPerUser)
		if *slice {
			start = time.Now()
			sliced, err := w.PanelRiskSliced()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\ndemographic-slice scan (§9 attacker view) in %v\n",
				time.Since(start).Round(time.Millisecond))
			fmt.Printf("red: %d  orange: %d  yellow: %d  green: %d\n",
				sliced.ByLevel["red"], sliced.ByLevel["orange"], sliced.ByLevel["yellow"], sliced.ByLevel["green"])
			fmt.Printf("%d users hold at least one red interest inside their slice (worldwide: %d)\n",
				sliced.UsersWithRed, sum.UsersWithRed)
		}
	}

	if *level == "" {
		return
	}
	removed, err := w.RemoveRiskyInterests(*user, *level)
	if err != nil {
		log.Fatal(err)
	}
	after, err := w.InterestRisk(*user)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nremoved %d interests at severity >= %s; %d remain\n", removed, *level, len(after))
	if len(after) > 0 {
		fmt.Printf("least popular remaining interest now has audience %d (was %d)\n",
			after[0].AudienceSize, rows[0].AudienceSize)
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
