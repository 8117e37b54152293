package geo

import "testing"

func TestTop50Count(t *testing.T) {
	if got := len(Top50()); got != 50 {
		t.Fatalf("Top50 has %d countries, want 50", got)
	}
}

func TestTop50TotalMatchesPaper(t *testing.T) {
	// The paper states the 50 countries accounted for ~1.5B active users
	// (81% of FB at collection time). Summing Table 3 gives 1.4995B.
	total := TotalTop50Users()
	if total < 1_450_000_000 || total > 1_550_000_000 {
		t.Fatalf("top-50 total = %d, want ~1.5B", total)
	}
}

func TestTop50Ordering(t *testing.T) {
	cs := Top50()
	for i := 1; i < len(cs); i++ {
		if cs[i].FBUsers > cs[i-1].FBUsers {
			t.Fatalf("Table 3 not in descending order at %s", cs[i].Code)
		}
	}
	if cs[0].Code != "US" || cs[0].FBUsers != 203_000_000 {
		t.Fatalf("first entry should be US with 203M, got %+v", cs[0])
	}
}

func TestTop50IsCopy(t *testing.T) {
	a := Top50()
	a[0].FBUsers = 0
	b := Top50()
	if b[0].FBUsers == 0 {
		t.Fatal("Top50 exposes internal state")
	}
}

func TestByCode(t *testing.T) {
	c, ok := ByCode("ES")
	if !ok || c.Name != "Spain" || c.FBUsers != 23_000_000 {
		t.Fatalf("ByCode(ES) = %+v, %v", c, ok)
	}
	// A Table-4-only country.
	c, ok = ByCode("UY")
	if !ok || c.Name != "Uruguay" {
		t.Fatalf("ByCode(UY) = %+v, %v", c, ok)
	}
	if _, ok := ByCode("XX"); ok {
		t.Fatal("ByCode(XX) should fail")
	}
}

func TestPanelTotals(t *testing.T) {
	if got := PanelTotal(); got != 2390 {
		t.Fatalf("panel total = %d, want 2390 (Table 4)", got)
	}
	if got := PanelCountries(); got != 80 {
		t.Fatalf("panel countries = %d, want 80", got)
	}
}

func TestPanelBreakdownSortedAndSpainFirst(t *testing.T) {
	entries := PanelBreakdown()
	if len(entries) != 80 {
		t.Fatalf("got %d entries", len(entries))
	}
	if entries[0].Code != "ES" || entries[0].Count != 1131 {
		t.Fatalf("Spain should lead with 1131, got %+v", entries[0])
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Count > entries[i-1].Count {
			t.Fatal("breakdown not sorted by count")
		}
	}
}

func TestPanelCountriesWithOver100Users(t *testing.T) {
	// Appendix C.3 uses countries with >100 panel users: ES, FR, MX, AR.
	want := map[string]bool{"ES": true, "FR": true, "MX": true, "AR": true}
	for _, e := range PanelBreakdown() {
		if e.Count > 100 {
			if !want[e.Code] {
				t.Fatalf("unexpected country with >100 users: %+v", e)
			}
			delete(want, e.Code)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing >100-user countries: %v", want)
	}
}

func TestValidateCode(t *testing.T) {
	if err := ValidateCode("FR"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCode("ZZ"); err == nil {
		t.Fatal("ZZ should be invalid")
	}
}

// scanByCode is the list-scanning lookup ByCode's index replaced: Table 3
// first, then panelNames, then panelCounts.
func scanByCode(code string) (Country, bool) {
	for _, c := range top50 {
		if c.Code == code {
			return c, true
		}
	}
	if n, ok := panelNames[code]; ok {
		return Country{Code: code, Name: n}, true
	}
	if _, ok := panelCounts[code]; ok {
		return Country{Code: code, Name: code}, true
	}
	return Country{}, false
}

// TestByCodeMatchesScan: every Table 3 code, every Table 4 code, every
// panelNames code and a set of unknown ones look up exactly as the list
// scan does.
func TestByCodeMatchesScan(t *testing.T) {
	codes := []string{"", "WW", "ZZ", "us", "USA", "E", "XK"}
	for _, c := range top50 {
		codes = append(codes, c.Code)
	}
	for code := range panelCounts {
		codes = append(codes, code)
	}
	for code := range panelNames {
		codes = append(codes, code)
	}
	for _, code := range codes {
		got, gotOK := ByCode(code)
		want, wantOK := scanByCode(code)
		if got != want || gotOK != wantOK {
			t.Errorf("ByCode(%q) = %+v, %v; the scan gives %+v, %v", code, got, gotOK, want, wantOK)
		}
	}
}
