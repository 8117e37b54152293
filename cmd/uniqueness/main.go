// Command uniqueness reproduces the paper's §4 analysis: Table 1 (N_P for
// least-popular and random selection at P = 0.5/0.8/0.9/0.95 with 95%
// bootstrap CIs and R²) and the VAS(Q) curves with their log–log fits behind
// Figures 3, 4 and 5. Figure data is written as CSV next to -out.
//
//	uniqueness                 # full-scale world (99k interests, 2,390 panel)
//	uniqueness -boot 10000     # paper-grade bootstrap
//	uniqueness -out figures/   # also dump fig3.csv fig4.csv fig5.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"nanotarget"
	"nanotarget/internal/cliflags"
	"nanotarget/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("uniqueness: ")
	cfg := cliflags.RegisterWorldFlags(flag.CommandLine)
	var (
		boot = flag.Int("boot", 1000, "bootstrap iterations (paper: 10000)")
		out  = flag.String("out", "", "directory for figure CSVs (optional)")
		plot = flag.Bool("plot", true, "render ASCII plots of the VAS curves")
		demo = flag.Bool("demo", false, "also run the §9 future-work study (demographics + interests)")
	)
	flag.Parse()

	start := time.Now()
	w, err := nanotarget.NewWorldFromConfig(*cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world built in %v\n%s\n\n", time.Since(start).Round(time.Millisecond), w.DescribePanel())

	start = time.Now()
	study, err := w.EstimateUniqueness(nanotarget.UniquenessOptions{BootstrapIters: *boot})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("study completed in %v\n", time.Since(start).Round(time.Millisecond))
	st := w.AudienceCacheStats()
	total := st.Total()
	fmt.Printf("audience cache (%s): %.1f%% hit rate (%d hits, %d misses, %d evictions, %d/%d entries)\n",
		cfg.Cache.Mode, 100*total.HitRate(), total.Hits, total.Misses, total.Evictions, total.Entries, total.Capacity)
	fmt.Printf("  per level: prefix %d/%d set %d/%d demo %d/%d (hits/misses)\n",
		st.Prefix.Hits, st.Prefix.Misses, st.Set.Hits, st.Set.Misses, st.Demo.Hits, st.Demo.Misses)
	fmt.Println()

	// Table 1 with the paper's values alongside.
	paper := map[string]map[float64]float64{
		"LP": {0.5: 2.74, 0.8: 3.96, 0.9: 4.16, 0.95: 5.89},
		"R":  {0.5: 11.41, 0.8: 17.31, 0.9: 22.21, 0.95: 26.98},
	}
	tab := report.NewTable("Table 1 — number of interests making a user unique",
		"strategy", "P", "N_P", "95% CI", "R2", "paper N_P")
	for _, row := range study.Estimates() {
		tab.MustAddRow(
			row.Strategy,
			fmt.Sprintf("%.2f", row.P),
			fmt.Sprintf("%.2f", row.NP),
			fmt.Sprintf("(%.2f, %.2f)", row.CILo, row.CIHi),
			fmt.Sprintf("%.3f", row.R2),
			fmt.Sprintf("%.2f", paper[row.Strategy][row.P]),
		)
	}
	if err := tab.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Figures 3–5: VAS curves per strategy and quantile.
	figs := []struct {
		name     string
		strategy string
		qs       []float64
	}{
		{"fig3", "R", []float64{0.5, 0.9}},
		{"fig4", "LP", []float64{0.5, 0.8, 0.9, 0.95}},
		{"fig5", "R", []float64{0.5, 0.8, 0.9, 0.95}},
	}
	for _, fig := range figs {
		var series []report.Series
		for _, q := range fig.qs {
			pts, err := study.VAS(fig.strategy, q)
			if err != nil {
				log.Fatal(err)
			}
			xs := make([]float64, len(pts))
			ys := make([]float64, len(pts))
			for i, p := range pts {
				xs[i] = float64(p.N)
				ys[i] = p.AudienceSize
			}
			s, err := report.NewSeries(fmt.Sprintf("VAS(%d)", int(q*100)), xs, ys)
			if err != nil {
				log.Fatal(err)
			}
			series = append(series, s)
		}
		fmt.Printf("\n%s — %s selection, audience size vs number of interests\n", fig.name, fig.strategy)
		if *plot {
			if err := report.AsciiPlot(os.Stdout, 64, 16, series...); err != nil {
				log.Fatal(err)
			}
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*out, fig.name+".csv")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := report.WriteCSV(f, series...); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	// Headline checks against the paper.
	lp90, _ := study.Estimate("LP", 0.9)
	r90, _ := study.Estimate("R", 0.9)
	r95, _ := study.Estimate("R", 0.95)
	fmt.Printf("\nheadlines:\n")
	fmt.Printf("  %d rarest interests make a user unique with 90%% probability (paper: 4)\n",
		int(math.Ceil(lp90.NP)))
	fmt.Printf("  %d random interests make a user unique with 90%% probability (paper: 22)\n",
		int(math.Ceil(r90.NP)))
	fmt.Printf("  N(R)_0.95 = %.1f %s 25, the platform's interest limit (paper: 26.98 > 25)\n",
		r95.NP, gtlt(r95.NP, 25))

	if *demo {
		fmt.Printf("\n§9 future work — demographics + interests (N_0.9):\n")
		cases := []struct {
			label string
			opts  nanotarget.DemographicKnowledgeOptions
		}{
			{"country", nanotarget.DemographicKnowledgeOptions{Country: true}},
			{"country+gender", nanotarget.DemographicKnowledgeOptions{Country: true, Gender: true}},
			{"country+gender+age±1", nanotarget.DemographicKnowledgeOptions{Country: true, Gender: true, AgeYears: true, AgeSlack: 1}},
		}
		for _, c := range cases {
			c.opts.BootstrapIters = *boot / 4
			boost, err := w.EstimateDemographicBoost(c.opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  knowing %-22s N_0.9 drops %.1f -> %.1f (%.1f interests saved)\n",
				c.label+":", boost.InterestOnly, boost.WithDemographics, boost.Saved)
		}
	}
}

func gtlt(v, bound float64) string {
	if v > bound {
		return ">"
	}
	return "<="
}
