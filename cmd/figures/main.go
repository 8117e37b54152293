// Command figures reproduces the paper's dataset and demographic figures:
//
//	-fig 1   CDF of interests per panel user (§3, Fig 1)
//	-fig 2   CDF of interest audience sizes (§3, Fig 2)
//	-fig 8   N_0.9 by gender (Appendix C, Fig 8)
//	-fig 9   N_0.9 by age group (Fig 9)
//	-fig 10  N_0.9 by country (Fig 10)
//	-table 3 top-50 FB countries (Appendix A)
//	-table 4 panel residence breakdown (Appendix B)
//
// CSV series are written when -out is given.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nanotarget"
	"nanotarget/internal/cliflags"
	"nanotarget/internal/geo"
	"nanotarget/internal/report"
	"nanotarget/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	cfg := cliflags.RegisterWorldFlags(flag.CommandLine,
		cliflags.Without(cliflags.FlagCacheCap, cliflags.FlagCacheMode))
	var (
		fig       = flag.Int("fig", 0, "figure number: 1, 2, 8, 9 or 10 (0 = all)")
		table     = flag.Int("table", 0, "table number: 3 or 4 (0 = none unless -fig 0)")
		boot      = flag.Int("boot", 300, "bootstrap iterations for Figs 8-10")
		out       = flag.String("out", "", "directory for CSV output (optional)")
		worldwide = flag.Bool("worldwide-groups", false,
			"legacy Figs 8-10 semantics: subset the panel per group but keep audience queries worldwide (comparison mode; default is group-conditional audiences)")
	)
	flag.Parse()

	all := *fig == 0 && *table == 0

	// Tables 3 and 4 need no world.
	if *table == 3 || all {
		table3()
	}
	if *table == 4 || all {
		table4()
	}
	needWorld := all || *fig != 0
	if !needWorld {
		return
	}

	start := time.Now()
	w, err := nanotarget.NewWorldFromConfig(*cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world built in %v\n", time.Since(start).Round(time.Millisecond))

	dump := func(name string, series ...report.Series) {
		if *out == "" {
			return
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*out, name+".csv")
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

	if *fig == 1 || all {
		sizes := make([]float64, 0, w.PanelSize())
		for _, u := range w.PanelUsers() {
			sizes = append(sizes, float64(len(u.Interests)))
		}
		// One counting-compressed column serves the headline quantiles and
		// the plotted CDF (stats.CountingQuantileSorted under InverseAt).
		ecdf, err := stats.NewECDF(sizes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nFig 1 — interests per panel user: min %.0f, median %.0f, max %.0f (paper: 1 / 426 / 8,950)\n",
			ecdf.Min(), ecdf.InverseAt(0.5), ecdf.Max())
		pts := ecdf.Points(100)
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		series, _ := report.NewSeries("cdf-interests-per-user", xs, ys)
		dump("fig1", series)
	}

	if *fig == 2 || all {
		sizes := make([]float64, 0, w.CatalogSize())
		for _, info := range w.SearchInterests("", w.CatalogSize()) {
			sizes = append(sizes, float64(info.AudienceSize))
		}
		ecdf, err := stats.NewECDF(sizes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nFig 2 — interest audience sizes: q25 %.0f, median %.0f, q75 %.0f (paper: 113,193 / 418,530 / 1,719,925)\n",
			ecdf.InverseAt(0.25), ecdf.InverseAt(0.5), ecdf.InverseAt(0.75))
		pts := ecdf.Points(200)
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		series, _ := report.NewSeries("cdf-audience-size", xs, ys)
		dump("fig2", series)
	}

	groupFig := func(n int, grouping nanotarget.Grouping, title string, paperNote string) {
		res, err := w.GroupUniquenessWithOptions(grouping, nanotarget.GroupUniquenessOptions{
			P:                  0.9,
			BootstrapIters:     *boot,
			WorldwideAudiences: *worldwide,
		})
		if err != nil {
			log.Fatal(err)
		}
		mode := "group-conditional audiences"
		if *worldwide {
			mode = "legacy worldwide audiences"
		}
		fmt.Printf("\nFig %d — N_0.9 by %s, %s (%s)\n", n, title, mode, paperNote)
		tab := report.NewTable("", "group", "users", "strategy", "N_0.9", "95% CI")
		var xs, ys []float64
		for _, g := range res {
			tab.MustAddRow(g.Group, fmt.Sprint(g.Users), g.Strategy,
				fmt.Sprintf("%.2f", g.Estimate.NP),
				fmt.Sprintf("(%.2f, %.2f)", g.Estimate.CILo, g.Estimate.CIHi))
			xs = append(xs, float64(len(xs)))
			ys = append(ys, g.Estimate.NP)
		}
		if err := tab.WriteASCII(os.Stdout); err != nil {
			log.Fatal(err)
		}
		series, _ := report.NewSeries(fmt.Sprintf("fig%d-n09", n), xs, ys)
		dump(fmt.Sprintf("fig%d", n), series)
	}
	if *fig == 8 || all {
		groupFig(8, nanotarget.ByGender, "gender", "paper: women need ~2 more random interests than men")
	}
	if *fig == 9 || all {
		groupFig(9, nanotarget.ByAge, "age group", "paper: adolescents need ~3 more random interests")
	}
	if *fig == 10 || all {
		groupFig(10, nanotarget.ByCountry, "country", "paper: AR hardest, FR easiest (~5 interests apart)")
	}
}

func table3() {
	tab := report.NewTable("Table 3 — top-50 countries by FB users (Jan 2017)",
		"code", "country", "users (M)")
	for _, c := range geo.Top50() {
		tab.MustAddRow(c.Code, c.Name, fmt.Sprintf("%.1f", float64(c.FBUsers)/1e6))
	}
	if err := tab.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total: %.2fB users\n\n", float64(geo.TotalTop50Users())/1e9)
}

func table4() {
	entries := geo.PanelBreakdown()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Code < entries[j].Code
	})
	tab := report.NewTable("Table 4 — panel users per country", "code", "users")
	for _, e := range entries {
		tab.MustAddRow(e.Code, fmt.Sprint(e.Count))
	}
	if err := tab.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total: %d users across %d countries\n\n", geo.PanelTotal(), geo.PanelCountries())
}
