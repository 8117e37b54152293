// Command nanotarget reproduces the paper's §5 experiment (Table 2): 21 ad
// campaigns — three consenting targets × nested random-interest sets of
// 5, 7, 9, 12, 18, 20 and 22 — run worldwide on the paper's schedules, with
// success validated by dashboard reach, landing-page click logs and the
// "Why am I seeing this ad?" disclosure.
//
//	nanotarget            # one full experiment at the default seed
//	nanotarget -runs 20   # repeat and summarize success probability per N
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"nanotarget"
	"nanotarget/internal/cliflags"
	"nanotarget/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nanotarget: ")
	cfg := cliflags.RegisterWorldFlags(flag.CommandLine,
		cliflags.Without(cliflags.FlagCacheCap),
		cliflags.With(cliflags.FlagPopulation),
		cliflags.Defaults(func(c *nanotarget.WorldConfig) { c.Population.Population = 2_800_000_000 }),
		cliflags.Usage(cliflags.FlagPopulation, "worldwide user base (the 2020 experiment era)"),
		cliflags.Usage(cliflags.FlagWorkers, "worker goroutines for campaign fan-out (0 = one per core, 1 = sequential)"))
	runs := flag.Int("runs", 1, "number of experiment repetitions")
	flag.Parse()

	start := time.Now()
	w, err := nanotarget.NewWorldFromConfig(*cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world built in %v (%d users, %d interests)\n\n",
		time.Since(start).Round(time.Millisecond), w.Population(), w.CatalogSize())

	if *runs == 1 {
		rep, err := w.RunNanotargeting(nanotarget.NanotargetingOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteTable2(os.Stdout); err != nil {
			log.Fatal(err)
		}
		succ18, total18 := rep.SuccessesWithAtLeast(18)
		fmt.Printf("\nheadline: %d of %d campaigns with 18+ interests nanotargeted their user (paper: 8 of 9)\n",
			succ18, total18)
		return
	}

	// Repetition mode: success probability per interest count.
	succ := map[int]int{}
	totals := map[int]int{}
	var counts []int
	for run := 0; run < *runs; run++ {
		rep, err := w.RunNanotargeting(nanotarget.NanotargetingOptions{Seed: uint64(run)})
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range rep.Rows() {
			if totals[row.Interests] == 0 && succ[row.Interests] == 0 {
				counts = appendUnique(counts, row.Interests)
			}
			totals[row.Interests]++
			if row.Nanotargeted {
				succ[row.Interests]++
			}
		}
	}
	// The model's own success-probability prediction for reference
	// (§5.1: 2.5% at 5, 15% at 7, 30% at 9, 50% at 12, ~80% at 18, 90% at 22).
	paper := map[int]float64{5: 0.025, 7: 0.15, 9: 0.30, 12: 0.50, 18: 0.80, 20: 0.85, 22: 0.90}
	tab := report.NewTable(
		fmt.Sprintf("nanotargeting success probability over %d experiments (%d campaigns per N)",
			*runs, totals[counts[0]]),
		"interests", "successes", "campaigns", "rate", "paper model")
	for _, n := range counts {
		tab.MustAddRow(
			fmt.Sprint(n),
			fmt.Sprint(succ[n]),
			fmt.Sprint(totals[n]),
			fmt.Sprintf("%.2f", float64(succ[n])/float64(totals[n])),
			fmt.Sprintf("%.2f", paper[n]),
		)
	}
	if err := tab.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func appendUnique(s []int, v int) []int {
	for _, have := range s {
		if have == v {
			return s
		}
	}
	return append(s, v)
}
