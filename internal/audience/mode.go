package audience

import "fmt"

// Mode selects the engine's caching contract.
//
// The choice is a trade between bit-exactness and hit rate under adversarial
// probing. Quadrature evaluation multiplies per-grid-point survivor factors
// in query order, and floating-point multiplication is not associative, so
// any cache that answers a permuted re-query from a differently-ordered
// evaluation necessarily relaxes bit-identity. ModeExact refuses that trade;
// ModeCanonical takes it, with the error bounded by
// MaxCanonicalRelativeError.
type Mode uint8

const (
	// ModeExact (the default) caches ordered conjunctions only.
	// Every result is bit-identical to an uncached evaluation of the same
	// query in the same order — the contract determinism_test.go gates.
	// Permuted re-probes of the same interest SET are distinct queries and
	// mostly miss. Single-flight miss coalescing (flight.go) is active in
	// this mode and cannot weaken the contract: identical keys pin the
	// identical ordered evaluation, so a follower receives exactly the bits
	// it would have computed itself — coalescing changes who evaluates,
	// never what the evaluation returns.
	ModeExact Mode = iota

	// ModeCanonical adds a sort-canonicalized set-level cache above the
	// ordered-prefix cache. ConjunctionShare (and everything derived from
	// it: UnionShare's pure-conjunction path, ExpectedAudience,
	// ExpectedAudienceConditional, RealizeAudience's share) evaluates the
	// SORTED permutation of the query, so every ordering of the same
	// interest set returns byte-identical shares — including across engine
	// instances and after evictions, because the canonical result is a pure
	// function of the set, not of cache state. Relative to ModeExact the
	// share may differ by up to MaxCanonicalRelativeError (reordering a
	// product of ≤ 27 factors per grid point); derived integer quantities
	// (floored reaches, binomial draws) can flip only on knife-edge
	// rounding boundaries. PrefixShares keeps exact ordered semantics in
	// both modes — a prefix sequence is inherently order-defined.
	ModeCanonical
)

// MaxCanonicalRelativeError bounds |canonical − exact| / exact for
// ConjunctionShare. A conjunction of n interests multiplies n survivor
// factors per grid point; reordering a product of n doubles perturbs it by
// at most ≈ 2n·2⁻⁵³ relatively, and the grid-weighted sum is accumulated in
// a fixed order in both modes, so per-term bounds carry through. At the
// platform cap of 25 interests (plus slack for longer test conjunctions)
// that is ≈ 6e-15; the exported bound leaves two orders of magnitude of
// headroom and is the value the metamorphic suite enforces.
const MaxCanonicalRelativeError = 1e-12

// String returns the flag-facing name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeCanonical:
		return "canonical"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseMode inverts String for flag parsing.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "exact":
		return ModeExact, nil
	case "canonical":
		return ModeCanonical, nil
	default:
		return ModeExact, fmt.Errorf("audience: unknown cache mode %q (want exact or canonical)", s)
	}
}
