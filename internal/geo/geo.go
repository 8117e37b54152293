// Package geo carries the geographic ground truth used throughout the
// reproduction: the paper's Table 3 (the 50 countries with the most Facebook
// users as of January 2017, totalling ~1.5B monthly active users — the user
// base of the uniqueness analysis) and Table 4 (the country-of-residence
// breakdown of the 2,390 FDVT panel users).
package geo

import (
	"fmt"
	"sort"
)

// Country describes one targetable location.
type Country struct {
	Code string // ISO 3166-1 alpha-2
	Name string
	// FBUsers is the Facebook monthly-active-user count from Table 3
	// (January 2017), in absolute users. Zero for countries that appear only
	// in the panel breakdown (Table 4).
	FBUsers int64
}

// top50 reproduces the paper's Table 3 verbatim (users in millions there;
// stored in absolute users here).
var top50 = []Country{
	{"US", "United States", 203_000_000},
	{"IN", "India", 161_000_000},
	{"BR", "Brazil", 114_000_000},
	{"ID", "Indonesia", 91_000_000},
	{"MX", "Mexico", 70_000_000},
	{"PH", "Philippines", 56_000_000},
	{"TR", "Turkey", 46_000_000},
	{"TH", "Thailand", 42_000_000},
	{"VN", "Vietnam", 42_000_000},
	{"GB", "United Kingdom", 39_000_000},
	{"EG", "Egypt", 33_000_000},
	{"FR", "France", 33_000_000},
	{"DE", "Germany", 30_000_000},
	{"IT", "Italy", 30_000_000},
	{"AR", "Argentina", 29_000_000},
	{"PK", "Pakistan", 28_000_000},
	{"CO", "Colombia", 26_000_000},
	{"JP", "Japan", 26_000_000},
	{"BD", "Bangladesh", 23_000_000},
	{"ES", "Spain", 23_000_000},
	{"CA", "Canada", 22_000_000},
	{"MY", "Malaysia", 20_000_000},
	{"PE", "Peru", 19_000_000},
	{"KR", "South Korea", 18_000_000},
	{"TW", "Taiwan", 18_000_000},
	{"DZ", "Algeria", 16_000_000},
	{"NG", "Nigeria", 16_000_000},
	{"AU", "Australia", 15_000_000},
	{"IQ", "Iraq", 14_000_000},
	{"PL", "Poland", 14_000_000},
	{"SA", "Saudi Arabia", 14_000_000},
	{"ZA", "South Africa", 14_000_000},
	{"MA", "Morocco", 13_000_000},
	{"VE", "Venezuela", 13_000_000},
	{"CL", "Chile", 12_000_000},
	{"MM", "Myanmar", 12_000_000},
	{"RU", "Russia", 12_000_000},
	{"NL", "Netherlands", 10_000_000},
	{"EC", "Ecuador", 9_800_000},
	{"RO", "Romania", 8_600_000},
	{"AE", "United Arab Emirates", 7_700_000},
	{"NP", "Nepal", 6_700_000},
	{"BE", "Belgium", 6_500_000},
	{"SE", "Sweden", 6_200_000},
	{"TN", "Tunisia", 6_100_000},
	{"KE", "Kenya", 6_000_000},
	{"PT", "Portugal", 5_900_000},
	{"UA", "Ukraine", 5_900_000},
	{"GT", "Guatemala", 5_500_000},
	{"HU", "Hungary", 5_300_000},
}

// panelCounts reproduces the paper's Table 4: users per country of residence
// among the 2,390 FDVT panel users (80 locations).
var panelCounts = map[string]int{
	"ES": 1131, "FR": 335, "MX": 122, "AR": 115, "EC": 89, "PE": 78,
	"CA": 61, "CO": 48, "US": 40, "BE": 36, "UY": 35, "GB": 26,
	"CH": 24, "PT": 21, "VE": 18, "SV": 17, "CL": 14, "PY": 13,
	"DE": 11, "IT": 11, "BO": 9, "MA": 8, "BR": 6, "GT": 6,
	"HN": 6, "NI": 6, "NL": 6, "PA": 6, "TN": 6, "BD": 5,
	"SE": 4, "TH": 4, "AD": 3, "AT": 3, "DK": 3, "DZ": 3,
	"FI": 3, "PK": 3, "SN": 3, "AF": 2, "AU": 2, "CY": 2,
	"DO": 2, "GR": 2, "HK": 2, "ID": 2, "IE": 2, "LU": 2,
	"PL": 2, "RE": 2, "AL": 1, "AM": 1, "AO": 1, "AX": 1,
	"BG": 1, "BT": 1, "CI": 1, "CR": 1, "CZ": 1, "DJ": 1,
	"GI": 1, "GN": 1, "IN": 1, "IQ": 1, "LK": 1, "LT": 1,
	"MG": 1, "MO": 1, "MU": 1, "NC": 1, "NP": 1, "NZ": 1,
	"PH": 1, "PM": 1, "PR": 1, "RO": 1, "RS": 1, "RU": 1,
	"RW": 1, "TW": 1,
}

// panelNames names the countries that appear only in Table 4.
var panelNames = map[string]string{
	"UY": "Uruguay", "CH": "Switzerland", "SV": "El Salvador",
	"PY": "Paraguay", "BO": "Bolivia", "HN": "Honduras", "NI": "Nicaragua",
	"PA": "Panama", "AD": "Andorra", "AT": "Austria", "DK": "Denmark",
	"FI": "Finland", "SN": "Senegal", "AF": "Afghanistan", "CY": "Cyprus",
	"DO": "Dominican Republic", "GR": "Greece", "HK": "Hong Kong SAR China",
	"IE": "Ireland", "LU": "Luxembourg", "RE": "Réunion", "AL": "Albania",
	"AM": "Armenia", "AO": "Angola", "AX": "Åland Islands", "BG": "Bulgaria",
	"BT": "Bhutan", "CI": "Côte d'Ivoire", "CR": "Costa Rica", "CZ": "Czechia",
	"DJ": "Djibouti", "GI": "Gibraltar", "GN": "Guinea", "LK": "Sri Lanka",
	"LT": "Lithuania", "MG": "Madagascar", "MO": "Macao SAR China",
	"MU": "Mauritius", "NC": "New Caledonia", "NZ": "New Zealand",
	"PM": "St. Pierre & Miquelon", "PR": "Puerto Rico", "RS": "Serbia",
	"RW": "Rwanda",
}

// Top50 returns the Table 3 countries in descending FB-user order.
// The returned slice is a copy; callers may mutate it.
func Top50() []Country {
	out := make([]Country, len(top50))
	copy(out, top50)
	return out
}

// TotalTop50Users returns the summed MAU of the Table 3 countries — the
// 1.5B-user base of the uniqueness analysis.
func TotalTop50Users() int64 {
	var sum int64
	for _, c := range top50 {
		sum += c.FBUsers
	}
	return sum
}

// byCode indexes every location ByCode knows: a Table 4 code names itself
// unless panelNames names it, and a Table 3 entry overrides both.
var byCode = func() map[string]Country {
	m := make(map[string]Country, len(top50)+len(panelCounts))
	for code := range panelCounts {
		m[code] = Country{Code: code, Name: code}
	}
	for code, name := range panelNames {
		m[code] = Country{Code: code, Name: name}
	}
	for _, c := range top50 {
		m[c.Code] = c
	}
	return m
}()

// ByCode looks a country up by ISO code across Table 3 and Table 4 entries.
func ByCode(code string) (Country, bool) {
	c, ok := byCode[code]
	return c, ok
}

// PanelBreakdown returns the Table 4 per-country panel sizes, sorted by
// descending count then code, as (code, count) pairs.
type PanelEntry struct {
	Code  string
	Count int
}

// PanelBreakdown returns the panel residence distribution of Table 4.
func PanelBreakdown() []PanelEntry {
	out := make([]PanelEntry, 0, len(panelCounts))
	for code, n := range panelCounts {
		out = append(out, PanelEntry{Code: code, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// PanelTotal returns the number of panel users in Table 4 (2,390).
func PanelTotal() int {
	sum := 0
	for _, n := range panelCounts {
		sum += n
	}
	return sum
}

// PanelCountries returns the number of distinct locations in Table 4 (80).
func PanelCountries() int { return len(panelCounts) }

// ValidateCode returns an error if code is not a known location. The Ads API
// simulator uses this for the compulsory-location rule (§2.1: "The only
// compulsory parameter to define an audience in FB is the location").
func ValidateCode(code string) error {
	if _, ok := ByCode(code); !ok {
		return fmt.Errorf("geo: unknown location code %q", code)
	}
	return nil
}

// Worldwide is the sentinel location meaning "no geographic filter". The
// 2017-era API rejected it (§2.1); the 2020-era API accepts it, and the
// nanotargeting experiment (§5.1) used it.
const Worldwide = "WW"
