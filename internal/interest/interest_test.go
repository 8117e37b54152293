package interest

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"nanotarget/internal/rng"
	"nanotarget/internal/stats"
)

func testConfig(size int) Config {
	cfg := DefaultConfig()
	cfg.Size = size
	return cfg
}

func TestGenerateBasics(t *testing.T) {
	c, err := Generate(testConfig(5000), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5000 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		in := c.MustGet(ID(i))
		if in.Share <= 0 || in.Share > 0.20000001 {
			t.Fatalf("interest %d share out of range: %v", i, in.Share)
		}
		if in.Name == "" || in.Category == "" {
			t.Fatalf("interest %d missing name/category", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(testConfig(500), rng.New(9))
	b, _ := Generate(testConfig(500), rng.New(9))
	for i := 0; i < a.Len(); i++ {
		if a.MustGet(ID(i)) != b.MustGet(ID(i)) {
			t.Fatal("catalog generation not deterministic")
		}
	}
}

func TestNamesUnique(t *testing.T) {
	c, _ := Generate(testConfig(20000), rng.New(2))
	seen := make(map[string]bool, c.Len())
	for i := 0; i < c.Len(); i++ {
		n := c.MustGet(ID(i)).Name
		if seen[n] {
			t.Fatalf("duplicate interest name %q", n)
		}
		seen[n] = true
	}
}

func TestFig2QuartilesReproduced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Size = 40000 // enough for tight quartiles without full-size cost
	c, err := Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]float64, c.Len())
	for i := range sizes {
		sizes[i] = c.MustGet(ID(i)).Share * float64(cfg.Population)
	}
	qs, _ := stats.Quantiles(sizes, []float64{0.25, 0.5, 0.75})
	// Paper: 113,193 / 418,530 / 1,719,925. Allow 15% sampling+truncation slack.
	checks := []struct {
		name      string
		got, want float64
	}{
		{"q25", qs[0], 113193},
		{"q50", qs[1], 418530},
		{"q75", qs[2], 1719925},
	}
	for _, ch := range checks {
		if math.Abs(ch.got-ch.want)/ch.want > 0.15 {
			t.Errorf("%s = %.0f, want within 15%% of %.0f", ch.name, ch.got, ch.want)
		}
	}
}

func TestSharesSpanBroadRange(t *testing.T) {
	// Fig 2 spans ~1e2 .. ~1e8+ audience sizes.
	cfg := DefaultConfig()
	cfg.Size = 40000
	c, _ := Generate(cfg, rng.New(4))
	minSize, maxSize := math.Inf(1), 0.0
	for i := 0; i < c.Len(); i++ {
		s := c.MustGet(ID(i)).Share * float64(cfg.Population)
		minSize = math.Min(minSize, s)
		maxSize = math.Max(maxSize, s)
	}
	if minSize > 1000 {
		t.Errorf("min audience %v too large; rare interests missing", minSize)
	}
	if maxSize < 5e7 {
		t.Errorf("max audience %v too small; popular interests missing", maxSize)
	}
}

// TestByNameRoundtrip resolves every name of the paper's 98,982-interest
// catalog back to its interest.
func TestByNameRoundtrip(t *testing.T) {
	c, _ := Generate(DefaultConfig(), rng.New(5))
	for i := 0; i < c.Len(); i++ {
		in := c.MustGet(ID(i))
		got, ok := c.ByName(in.Name)
		if !ok || got != in {
			t.Fatalf("ByName(%q) = %+v, %v; want %+v", in.Name, got, ok, in)
		}
	}
	if _, ok := c.ByName("definitely not an interest"); ok {
		t.Fatal("unknown name resolved")
	}
}

// FuzzCatalogByName checks that ByName accepts exactly the catalog's names:
// it succeeds on s if and only if s is MustGet(id).Name for some id < Len.
// The catalog is the paper's 98,982 interests, so its last serial, 50,
// holds only some modifier-stem pairs.
func FuzzCatalogByName(f *testing.F) {
	c, err := Generate(DefaultConfig(), rng.New(11))
	if err != nil {
		f.Fatal(err)
	}
	names := make(map[string]ID, c.Len())
	for i := 0; i < c.Len(); i++ {
		names[c.MustGet(ID(i)).Name] = ID(i)
	}
	for _, s := range []string{
		"", " ", "(1)", "Classic", "Classic ", "Classic Artisanal coffee",
		"Classic Artisanal coffee ", "Classic  Artisanal coffee", " Classic Artisanal coffee",
		"Classic Artisanal coffee (1)", "Classic Artisanal coffee (2)", "Classic Artisanal coffee (02)",
		"Classic Artisanal coffee (+2)", "Classic Artisanal coffee (-2)", "Classic Artisanal coffee (0)",
		"Classic Artisanal coffee (2) ", "Classic Artisanal coffee (2", "Classic Artisanal coffee 2)",
		"Classic Artisanal coffee (50)", "Collectors' Thrifting (49)", "Collectors' Thrifting (50)",
		"Classic Artisanal coffee (51)", "Classic Artisanal coffee (99999999999999999999)",
		"Classic Unknown stem", "Unknown Artisanal coffee", "Classic artisanal coffee",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := c.ByName(s)
		id, want := names[s]
		if ok != want {
			t.Fatalf("ByName(%q) ok = %v, want %v", s, ok, want)
		}
		if ok && got != c.MustGet(id) {
			t.Fatalf("ByName(%q) = %+v, want %+v", s, got, c.MustGet(id))
		}
	})
}

func TestGetErrors(t *testing.T) {
	c, _ := Generate(testConfig(10), rng.New(6))
	if _, err := c.Get(ID(10)); err == nil {
		t.Fatal("out-of-range ID accepted")
	}
	if !c.Has(ID(9)) || c.Has(ID(10)) {
		t.Fatal("Has disagrees with the catalog's ID range [0, 10)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet should panic on bad ID")
		}
	}()
	c.MustGet(ID(10))
}

func TestRarestFirstSorted(t *testing.T) {
	c, _ := Generate(testConfig(2000), rng.New(7))
	ids := c.RarestFirst()
	if len(ids) != c.Len() {
		t.Fatalf("RarestFirst length %d", len(ids))
	}
	if !sort.SliceIsSorted(ids, func(a, b int) bool {
		return c.Share(ids[a]) < c.Share(ids[b])
	}) {
		// Ties may exist; verify non-strict ordering.
		for i := 1; i < len(ids); i++ {
			if c.Share(ids[i]) < c.Share(ids[i-1]) {
				t.Fatal("RarestFirst not sorted by share")
			}
		}
	}
	if !slices.Equal(ids, sortSliceOrder(c.shares)) {
		t.Fatal("RarestFirst differs from the sort.Slice order by (share, ID)")
	}
}

func TestRarestFirstIsCopy(t *testing.T) {
	c, _ := Generate(testConfig(100), rng.New(8))
	a := c.RarestFirst()
	a[0] = ID(99)
	b := c.RarestFirst()
	if b[0] == ID(99) && a[0] == b[0] && c.Share(b[0]) > c.Share(b[1]) {
		t.Fatal("RarestFirst exposes internal slice")
	}
}

func TestAudienceSize(t *testing.T) {
	c, _ := Generate(testConfig(100), rng.New(9))
	in := c.MustGet(0)
	got := c.AudienceSize(0, 1_500_000_000)
	want := int64(in.Share * 1.5e9)
	if got != want {
		t.Fatalf("AudienceSize = %d, want %d", got, want)
	}
}

// TestSearch compares Search with a scan over MustGet's names, and checks
// that a scan with no hits allocates nothing.
func TestSearch(t *testing.T) {
	c, _ := Generate(testConfig(5000), rng.New(10))
	if len(c.Search("coffee", 10)) == 0 {
		t.Fatal("expected some coffee interests")
	}
	for _, q := range []string{"", "coffee", "COFFEE", "cLaSsIc aRt", "Nordic", " (2)", "(3)", "s (", "no such interest"} {
		for _, limit := range []int{-1, 0, 1, 7, 25, 10_000} {
			var want []Interest
			wantLen := limit
			if wantLen <= 0 {
				wantLen = 25
			}
			for i := 0; i < c.Len() && len(want) < wantLen; i++ {
				in := c.MustGet(ID(i))
				if strings.Contains(strings.ToLower(in.Name), strings.ToLower(q)) {
					want = append(want, in)
				}
			}
			if got := c.Search(q, limit); !slices.Equal(got, want) {
				t.Errorf("Search(%q, %d) = %d interests, reference scan %d", q, limit, len(got), len(want))
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { c.Search("no such interest", 5) }); allocs != 0 {
		t.Errorf("Search with no hits: %v allocs, want 0", allocs)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Size: 0, Population: 1, MaxShare: 0.5, Quartile25: 1, Quartile75: 2}, rng.New(1)); err == nil {
		t.Error("zero size accepted")
	}
	cfg := DefaultConfig()
	cfg.Population = 0
	if _, err := Generate(cfg, rng.New(1)); err == nil {
		t.Error("zero population accepted")
	}
	cfg = DefaultConfig()
	cfg.MaxShare = 0
	if _, err := Generate(cfg, rng.New(1)); err == nil {
		t.Error("zero MaxShare accepted")
	}
}

// TestMakeNameMatchesFormat pins the concatenated names to the
// fmt.Sprintf formatting they replaced, across the serial boundaries of the
// paper's 98,982-interest catalog and beyond.
func TestMakeNameMatchesFormat(t *testing.T) {
	period := len(nameStems) * len(nameModifiers)
	for _, i := range []int{0, 1, 49, 50, period - 1, period, period + 1, 2*period - 1, 2 * period, 98_981, 199 * period, 1_000_000} {
		stem := nameStems[i%len(nameStems)]
		mod := nameModifiers[(i/len(nameStems))%len(nameModifiers)]
		want := fmt.Sprintf("%s %s", mod, stem)
		if serial := i / period; serial > 0 {
			want = fmt.Sprintf("%s %s (%d)", mod, stem, serial+1)
		}
		if got := makeName(i); got != want {
			t.Errorf("makeName(%d) = %q, want %q", i, got, want)
		}
	}
}

// sortSliceOrder is the popularity order as sort.Slice computed it over the
// catalog's IDs before popularityOrder: the reference FuzzPopularityOrder
// compares against.
func sortSliceOrder(shares []float64) []ID {
	ids := make([]ID, len(shares))
	for i := range ids {
		ids[i] = ID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa := shares[ids[a]]
		sb := shares[ids[b]]
		if sa != sb {
			return sa < sb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// FuzzPopularityOrder checks popularityOrder against sort.Slice with the
// catalog's old comparator on share vectors full of ties: each input byte
// is one interest, and its share takes one of 64 values (negatives, -0, +0,
// positives and both infinities), so long inputs repeat shares many times
// over.
func FuzzPopularityOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add([]byte{3, 3, 3, 3, 3})
	f.Add([]byte{0, 31, 0, 31, 63, 62, 2, 9, 0})
	f.Add([]byte("popularity order with ties: aaaa bbbb"))
	f.Fuzz(func(t *testing.T, data []byte) {
		shares := make([]float64, len(data))
		for i, b := range data {
			var share float64
			switch v := b % 64; v {
			case 0:
				share = math.Copysign(0, -1)
			case 62:
				share = math.Inf(-1)
			case 63:
				share = math.Inf(1)
			default:
				share = float64(int(v)-31) / 16
			}
			shares[i] = share
		}
		got, want := popularityOrder(shares), sortSliceOrder(shares)
		if !slices.Equal(got, want) {
			t.Fatalf("popularityOrder = %v, sort.Slice order = %v", got, want)
		}
	})
}
