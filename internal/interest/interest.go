// Package interest models the Facebook interest (ad-preference) ecosystem:
// a catalog of ~99k targetable interests, each with a global popularity
// (audience share), a human-readable name and an FB-style category. Only
// the shares are drawn and stored; names and categories are functions of
// the interest's ID.
//
// The popularity distribution is calibrated against the paper's Fig 2: the
// audience sizes of the 98,982 unique interests held by the panel have
// quartiles 113,193 / 418,530 / 1,719,925 within a 1.5B-user base, spanning
// tens of users to hundreds of millions. A log-normal fitted through the
// 25th/75th percentiles reproduces that curve; shares are truncated so no
// interest covers more than MaxShare of the population and none falls below
// one-in-population.
package interest

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"nanotarget/internal/dist"
	"nanotarget/internal/parallel"
	"nanotarget/internal/rng"
)

// ID identifies an interest within a catalog. IDs are dense in [0, Len).
type ID uint32

// Interest is one targetable ad preference.
type Interest struct {
	ID       ID
	Name     string
	Category string
	// Share is the fraction of the modeled user base holding this interest
	// (marginal audience share in (0, 1)).
	Share float64
}

// Categories mirrors Facebook's top-level ad-preference categories.
var Categories = []string{
	"Business and industry",
	"Education",
	"Entertainment",
	"Family and relationships",
	"Fitness and wellness",
	"Food and drink",
	"Hobbies and activities",
	"Lifestyle and culture",
	"News and politics",
	"People",
	"Science and technology",
	"Shopping and fashion",
	"Sports and outdoors",
	"Travel, places and events",
	"Vehicles and transportation",
}

var nameStems = []string{
	"Artisanal coffee", "Vintage synthesizers", "Trail running", "Astrophotography",
	"Korean cinema", "Urban gardening", "Chess openings", "Fermentation",
	"Mechanical keyboards", "Birdwatching", "Salsa dancing", "Home automation",
	"Graphic novels", "Sourdough baking", "Freediving", "Typography",
	"Bouldering", "Analog photography", "Tabletop roleplaying", "Beekeeping",
	"Speedcubing", "Calligraphy", "Drone racing", "Kombucha brewing",
	"Stand-up comedy", "Jazz fusion", "Marathon training", "Woodworking",
	"Street food", "Retro gaming", "Open-source software", "Minimalism",
	"Van life", "Indoor climbing", "Podcast production", "Letterpress printing",
	"Orienteering", "Falconry", "Glassblowing", "Paragliding",
	"Bonsai", "Quilting", "Archery", "Karaoke", "Origami", "Surf culture",
	"Craft beer", "Electric vehicles", "Meditation", "Thrifting",
}

var nameModifiers = []string{
	"Classic", "Modern", "Competitive", "Amateur", "Professional", "Nordic",
	"Mediterranean", "Japanese", "Andean", "Alpine", "Coastal", "Urban",
	"Rural", "Experimental", "Traditional", "Contemporary", "Vintage",
	"Sustainable", "Artisan", "Digital", "Outdoor", "Indoor", "Regional",
	"International", "Independent", "Underground", "Mainstream", "Seasonal",
	"Historic", "Futuristic", "Community", "Family", "Solo", "Extreme",
	"Casual", "Gourmet", "Budget", "Luxury", "Minimalist", "Collectors'",
}

// Catalog is an immutable set of interests. It holds each interest's
// share, indexed by ID, and nothing else (8 bytes per interest): an
// interest's name (makeName) and category (Categories[id%len(Categories)])
// are functions of its ID, which Get builds on demand and ByName inverts,
// and RarestFirst sorts the popularity order afresh on each call.
type Catalog struct {
	shares []float64
}

// Config controls catalog generation.
type Config struct {
	// Size is the number of interests; the paper's dataset has 98,982.
	Size int
	// Population is the user base against which Share translates to an
	// audience size (the paper's 1.5B for the 2017 dataset).
	Population int64
	// Quartile25 and Quartile75 are target audience sizes at the 25th/75th
	// percentile of the catalog (Fig 2: 113,193 and 1,719,925).
	Quartile25, Quartile75 float64
	// MaxShare caps any single interest's share of the population.
	MaxShare float64
}

// DefaultConfig returns the paper-calibrated catalog configuration.
func DefaultConfig() Config {
	return Config{
		Size:       98_982,
		Population: 1_500_000_000,
		Quartile25: 113_193,
		Quartile75: 1_719_925,
		MaxShare:   0.20,
	}
}

// Generate builds a catalog of cfg.Size interests with shares drawn from the
// Fig-2-calibrated log-normal, deterministically from r. It draws one
// uniform per interest from r in ID order, exactly what a Sample per
// interest would draw, and maps them through the truncated quantile in
// contiguous blocks on GOMAXPROCS goroutines, so the catalog, and r's state
// after the call, are the same bits at any GOMAXPROCS.
func Generate(cfg Config, r *rng.Rand) (*Catalog, error) {
	if cfg.Size <= 0 {
		return nil, errors.New("interest: catalog size must be positive")
	}
	if cfg.Population <= 0 {
		return nil, errors.New("interest: population must be positive")
	}
	if cfg.MaxShare <= 0 || cfg.MaxShare > 1 {
		return nil, errors.New("interest: MaxShare must be in (0,1]")
	}
	ln, err := dist.FitLogNormalQuantiles(cfg.Quartile25, 0.25, cfg.Quartile75, 0.75)
	if err != nil {
		return nil, fmt.Errorf("interest: calibrating popularity: %w", err)
	}
	pop := float64(cfg.Population)
	sizes := dist.PrepareInverse(ln, 2, cfg.MaxShare*pop)

	// The uniforms are drawn in stream order first (none for an empty
	// interval, where Sample draws none), then mapped in place.
	shares := make([]float64, cfg.Size)
	if !sizes.Empty() {
		for i := range shares {
			shares[i] = r.Float64()
		}
	}
	parallel.Blocks(len(shares), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			shares[i] = sizes.At(shares[i]) / pop
		}
	})
	return &Catalog{shares: shares}, nil
}

// popularityOrder returns the IDs of shares (indexed by ID) by ascending
// share, ties broken by ascending ID. That is a strict total order on
// (share, ID), so every correct sort yields this one order. shares must hold
// no NaN.
//
// It is an LSD radix sort over order-preserving share bits: a few linear
// counting passes, no comparisons and no reflection. Each pass is stable, so
// equal shares keep the ascending IDs they start in.
func popularityOrder(shares []float64) []ID {
	const digitBits = 11
	n := len(shares)
	keys, ids := make([]uint64, n), make([]ID, n)
	for i, share := range shares {
		keys[i], ids[i] = orderedBits(share), ID(i)
	}
	if n == 0 {
		return ids
	}
	nextKeys, nextIDs := make([]uint64, n), make([]ID, n)
	var pos [1 << digitBits]int
	const mask = len(pos) - 1
	for shift := 0; shift < 64; shift += digitBits {
		clear(pos[:])
		for _, k := range keys {
			pos[int(k>>shift)&mask]++
		}
		if pos[int(keys[0]>>shift)&mask] == n {
			continue // every key has this digit: the pass would not move anything
		}
		sum := 0
		for d, c := range pos {
			pos[d] = sum
			sum += c
		}
		for i, k := range keys {
			d := int(k>>shift) & mask
			nextKeys[pos[d]], nextIDs[pos[d]] = k, ids[i]
			pos[d]++
		}
		keys, nextKeys = nextKeys, keys
		ids, nextIDs = nextIDs, ids
	}
	return ids
}

// orderedBits maps a non-NaN float64 to a uint64 that orders the same way:
// negatives have every bit flipped, non-negatives their sign bit set, and
// -0 maps to +0's key because the two compare equal.
func orderedBits(f float64) uint64 {
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// makeName builds a unique, plausible interest name for index i:
// "<modifier> <stem>", then " (n)" with n = serial+1 once the 2,000
// modifier-stem pairs are used up.
func makeName(i int) string {
	var buf [64]byte
	return string(appendName(buf[:0], i))
}

// appendName appends makeName(i) to dst.
func appendName(dst []byte, i int) []byte {
	dst = append(dst, nameModifiers[(i/len(nameStems))%len(nameModifiers)]...)
	dst = append(dst, ' ')
	dst = append(dst, nameStems[i%len(nameStems)]...)
	if serial := i / (len(nameStems) * len(nameModifiers)); serial > 0 {
		dst = append(dst, " ("...)
		dst = strconv.AppendInt(dst, int64(serial+1), 10)
		dst = append(dst, ')')
	}
	return dst
}

// Len returns the number of interests.
func (c *Catalog) Len() int { return len(c.shares) }

// Has reports whether id is in the catalog. Unlike Get it builds nothing,
// so request paths validate IDs with it.
func (c *Catalog) Has(id ID) bool { return int(id) < len(c.shares) }

// Get returns the interest with the given ID, its name built afresh.
func (c *Catalog) Get(id ID) (Interest, error) {
	if !c.Has(id) {
		return Interest{}, fmt.Errorf("interest: unknown id %d", id)
	}
	return Interest{
		ID:       id,
		Name:     makeName(int(id)),
		Category: Categories[int(id)%len(Categories)],
		Share:    c.shares[id],
	}, nil
}

// MustGet is Get for IDs known to be valid; it panics on unknown IDs.
func (c *Catalog) MustGet(id ID) Interest {
	in, err := c.Get(id)
	if err != nil {
		panic(err)
	}
	return in
}

// ByName finds an interest by exact name. It inverts makeName: the
// modifier is the first word, the stem the rest up to an optional " (n)"
// serial with n >= 2, and the ID they give must be in the catalog and name
// back to exactly name, which rejects any other spelling of the serial.
func (c *Catalog) ByName(name string) (Interest, bool) {
	mod, stem, ok := strings.Cut(name, " ")
	if !ok {
		return Interest{}, false
	}
	serial := 0
	if s, num, ok := strings.Cut(stem, " ("); ok {
		num, ok = strings.CutSuffix(num, ")")
		n, err := strconv.Atoi(num)
		if !ok || err != nil || n < 2 || n-1 >= len(c.shares) {
			return Interest{}, false
		}
		stem, serial = s, n-1
	}
	m, st := slices.Index(nameModifiers, mod), slices.Index(nameStems, stem)
	if m < 0 || st < 0 {
		return Interest{}, false
	}
	i := (serial*len(nameModifiers)+m)*len(nameStems) + st
	var buf [64]byte
	if i >= len(c.shares) || string(appendName(buf[:0], i)) != name {
		return Interest{}, false
	}
	return c.MustGet(ID(i)), true
}

// Share returns the marginal audience share for id. Panics on unknown id.
func (c *Catalog) Share(id ID) float64 { return c.shares[id] }

// AudienceSize converts an interest's share into an audience count for a
// user base of pop users.
func (c *Catalog) AudienceSize(id ID, pop int64) int64 {
	return int64(c.shares[id] * float64(pop))
}

// RarestFirst returns interest IDs sorted by ascending share, ties by
// ascending ID, in a new slice. It sorts the whole catalog on every call
// (about 1 ms at 20,000 interests); tests and diagnostics are its only
// callers.
func (c *Catalog) RarestFirst() []ID { return popularityOrder(c.shares) }

// Search returns up to limit interests whose names contain the query
// (ASCII case-insensitive substring match), mimicking the Ads Manager's
// type=adinterest search endpoint. It formats each candidate's name into
// one reused buffer, so only hits allocate.
func (c *Catalog) Search(query string, limit int) []Interest {
	if limit <= 0 {
		limit = 25
	}
	var out []Interest
	var buf [64]byte
	for i := range c.shares {
		if containsFold(appendName(buf[:0], i), query) {
			out = append(out, c.MustGet(ID(i)))
			if len(out) >= limit {
				break
			}
		}
	}
	return out
}

// containsFold is a simple ASCII case-insensitive substring test.
func containsFold(s []byte, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	if len(sub) > len(s) {
		return false
	}
	lower := func(b byte) byte {
		if 'A' <= b && b <= 'Z' {
			return b + 'a' - 'A'
		}
		return b
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			if lower(s[i+j]) != lower(sub[j]) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
