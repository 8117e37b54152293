package interest

import (
	"math"
	"runtime"
	"testing"

	"nanotarget/internal/dist"
	"nanotarget/internal/rng"
)

// sequentialGenerate is Generate as a plain loop: one Sample per interest,
// in ID order, on the caller's goroutine. It is the reference the parallel
// quantile transform must match bit for bit.
func sequentialGenerate(t *testing.T, cfg Config, r *rng.Rand) []float64 {
	t.Helper()
	ln, err := dist.FitLogNormalQuantiles(cfg.Quartile25, 0.25, cfg.Quartile75, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	pop := float64(cfg.Population)
	sizes := dist.PrepareInverse(ln, 2, cfg.MaxShare*pop)
	shares := make([]float64, cfg.Size)
	for i := range shares {
		shares[i] = sizes.Sample(r) / pop
	}
	return shares
}

// TestGenerateMatchesSequentialSample pins that Generate's block fan-out
// gives every share of the per-interest Sample loop, bit for bit, and
// leaves r where that loop leaves it (callers keep drawing from r after
// Generate). Sizes cover one and two interests, each side of the block
// edges at the current GOMAXPROCS, and a serving catalog; a population of 5
// makes the truncation interval empty, where Sample draws nothing and so
// must Generate.
func TestGenerateMatchesSequentialSample(t *testing.T) {
	w := runtime.GOMAXPROCS(0)
	sizes := []int{1, 2, 3, 20_000}
	for _, edge := range []int{w, 2 * w, 3 * w} {
		sizes = append(sizes, edge-1, edge, edge+1)
	}
	for _, pop := range []int64{1_500_000_000, 5} {
		for _, size := range sizes {
			if size < 1 {
				continue
			}
			for _, seed := range []uint64{1, 7, 42} {
				cfg := testConfig(size)
				cfg.Population = pop
				ra, rb := rng.New(seed), rng.New(seed)
				cat, err := Generate(cfg, ra)
				if err != nil {
					t.Fatal(err)
				}
				want := sequentialGenerate(t, cfg, rb)
				if cat.Len() != len(want) {
					t.Fatalf("pop %d size %d seed %d: %d shares, want %d", pop, size, seed, cat.Len(), len(want))
				}
				for i, s := range want {
					if got := cat.Share(ID(i)); math.Float64bits(got) != math.Float64bits(s) {
						t.Fatalf("pop %d size %d seed %d: share %d = %v, want %v", pop, size, seed, i, got, s)
					}
				}
				next := ra.Uint64()
				if next != rb.Uint64() {
					t.Fatalf("pop %d size %d seed %d: stream after Generate differs from the sequential loop's", pop, size, seed)
				}
				if pop == 5 && next != rng.New(seed).Uint64() {
					t.Fatalf("size %d seed %d: an empty truncation interval drew from the stream", size, seed)
				}
			}
		}
	}
}
