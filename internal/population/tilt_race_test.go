package population

import (
	"fmt"
	"sync"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
)

// TestTiltFirstTouchConcurrent is the regression test for the documented
// lazy-init hazard in Model.table / Model.tiltedRates: before tiltMu, the
// first concurrent use of an UNWARMED tilt raced on the cache maps. Eight
// goroutines hammer fresh tilts through both entry points (count-table
// inversion and profile sampling) with no WarmTilts call; the -race CI lane
// is the assertion. The test also checks that all goroutines observe the
// same interned table result.
func TestTiltFirstTouchConcurrent(t *testing.T) {
	icfg := interest.DefaultConfig()
	icfg.Size = 400
	cat, err := interest.Generate(icfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultConfig(cat)
	pcfg.ActivityGridSize = 64
	m, err := NewModel(pcfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	betas := []float64{0.15, -0.1, 0.3, 0} // never warmed, untilted included: first touch happens inside the race
	results := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + g))
			out := make([]float64, 0, len(betas)*2)
			for _, beta := range betas {
				// table(beta) first touch via the n(t) inversion...
				out = append(out, m.ActivityForCount(150, beta))
				// ...and tiltedRates(beta) first touch via profile sampling.
				ids := m.SampleInterests(1.0, beta, r)
				out = append(out, float64(len(ids)))
				_ = m.ExpectedCount(2.0, beta)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	// Every goroutine must see the same interned count tables (the sampled
	// profile sizes differ by stream, so only compare the deterministic
	// inversions).
	for g := 1; g < goroutines; g++ {
		for i := 0; i < len(results[g]); i += 2 {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d saw ActivityForCount %v, goroutine 0 saw %v (entry %d)",
					g, results[g][i], results[0][i], i)
			}
		}
	}

	// The warm path still returns the identical interned values.
	for i, beta := range betas {
		if got, want := m.ActivityForCount(150, beta), results[0][2*i]; got != want {
			t.Fatalf("post-race ActivityForCount(150, %v) = %v, want %v", beta, got, want)
		}
	}
	if fmt.Sprint(m.ActivityForCount(150, betas[0])) == "NaN" {
		t.Fatal("degenerate inversion")
	}
}
