package cliflags

import (
	"bytes"
	"flag"
	"slices"
	"strings"
	"testing"

	"nanotarget/internal/audience"
	"nanotarget/internal/worldcfg"
)

func newSet(t *testing.T) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&bytes.Buffer{})
	return fs
}

// TestDefaultSurface pins the shared flag surface: exactly the registered
// names, and the parse-free config matching worldcfg.Default().
func TestDefaultSurface(t *testing.T) {
	fs := newSet(t)
	cfg := RegisterWorldFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"cache-mode", "cachecap", "catalog", "panel", "seed", "workers"}
	if !slices.Equal(got, want) {
		t.Fatalf("default surface = %v, want %v", got, want)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *cfg != worldcfg.Default() {
		t.Fatalf("unparsed config %+v differs from worldcfg.Default()", *cfg)
	}
}

func TestParseBindsEveryFlag(t *testing.T) {
	fs := newSet(t)
	cfg := RegisterWorldFlags(fs, With(FlagPopulation))
	err := fs.Parse([]string{
		"-catalog", "123", "-panel", "45", "-seed", "9", "-workers", "3",
		"-cachecap", "77", "-cache-mode", "canonical", "-population", "1000000",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Population.CatalogSize != 123 || cfg.Population.PanelSize != 45 ||
		cfg.Population.Seed != 9 || cfg.Parallelism != 3 ||
		cfg.Population.Population != 1000000 {
		t.Fatalf("scalar flags did not bind: %+v", *cfg)
	}
	if cfg.Cache.Capacity != 77 {
		t.Errorf("Cache.Capacity = %d", cfg.Cache.Capacity)
	}
	if cfg.Cache.Mode != audience.ModeCanonical {
		t.Errorf("Cache.Mode = %v", cfg.Cache.Mode)
	}
}

// TestRemovedOracleFlagsFailToParse: the uncached and naive-bootstrap
// reference paths are test oracles, not tool options, so no tool accepts
// the flags that used to select them.
func TestRemovedOracleFlagsFailToParse(t *testing.T) {
	for _, arg := range []string{"-cache=false", "-column-kernel=false"} {
		fs := newSet(t)
		RegisterWorldFlags(fs, With(FlagPopulation))
		if err := fs.Parse([]string{arg}); err == nil {
			t.Errorf("%s parsed; the flag must no longer exist", arg)
		}
	}
}

func TestWithoutDropsFlags(t *testing.T) {
	fs := newSet(t)
	RegisterWorldFlags(fs, Without(FlagCacheCap, FlagCacheMode))
	for _, name := range []string{"cachecap", "cache-mode"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s should have been dropped", name)
		}
	}
	if fs.Lookup("catalog") == nil {
		t.Error("Without must not drop unrelated flags")
	}
}

func TestDefaultsChangeRegisteredDefault(t *testing.T) {
	fs := newSet(t)
	cfg := RegisterWorldFlags(fs, Defaults(func(c *worldcfg.Config) {
		c.Population.CatalogSize = 30_000
		c.Population.ProfileMedian = 200
	}))
	if got := fs.Lookup("catalog").DefValue; got != "30000" {
		t.Errorf("-catalog default = %q, want 30000", got)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg.Population.CatalogSize != 30_000 || cfg.Population.ProfileMedian != 200 {
		t.Fatalf("Defaults not applied: %+v", cfg.Population)
	}
}

func TestUsageOverride(t *testing.T) {
	fs := newSet(t)
	RegisterWorldFlags(fs, Usage(FlagSeed, "master seed"))
	if got := fs.Lookup("seed").Usage; got != "master seed" {
		t.Errorf("usage = %q", got)
	}
}

// TestPrintDefaultsShowsModeDefault guards the flag.Value plumbing:
// PrintDefaults probes a zero Value, and ours must render "" there so the
// registered default ("exact") still displays.
func TestPrintDefaultsShowsModeDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	RegisterWorldFlags(fs)
	fs.PrintDefaults()
	help := buf.String()
	if !strings.Contains(help, "default exact") {
		t.Errorf("help does not show the cache-mode default:\n%s", help)
	}
}

func TestBadCacheModeFailsAtParse(t *testing.T) {
	fs := newSet(t)
	RegisterWorldFlags(fs)
	if err := fs.Parse([]string{"-cache-mode", "bogus"}); err == nil {
		t.Fatal("bogus cache mode must fail flag parsing")
	}
}
