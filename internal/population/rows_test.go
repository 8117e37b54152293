package population

import (
	"math"
	"sync"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
)

// rowTestModel builds a model over a 1,500-interest catalog on a
// 128-point activity grid.
func rowTestModel(t testing.TB) *Model {
	t.Helper()
	icfg := interest.DefaultConfig()
	icfg.Size = 1500
	cat, err := interest.Generate(icfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cat)
	cfg.ActivityGridSize = 128
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// inlineExpShares returns the shares of ids[:1], ids[:2], ..., ids[:len(ids)]
// by the per-call exp() loop the row kernel hoisted: every And multiplies
// 1 − exp(−t_k·λ) into the survivor product at each grid point, and every
// Share sums the probability-weighted survivors in grid order. It reads only
// the model's exported rates and grid, so it is the reference the kernel is
// checked against bit for bit.
func inlineExpShares(m *Model, ids []interest.ID) []float64 {
	t, p := m.ActivityGrid()
	partial := make([]float64, len(t))
	for k := range partial {
		partial[k] = 1
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		lambda := m.Lambda(id)
		for k, tk := range t {
			partial[k] *= 1 - math.Exp(-tk*lambda)
		}
		s := 0.0
		for k, pk := range p {
			s += pk * partial[k]
		}
		out[i] = s
	}
	return out
}

// inlineExpUnionShare is UnionConjunctionShare by the per-grid-point exp()
// triple loop the row kernel replaced, early break on a zero product
// included.
func inlineExpUnionShare(m *Model, clauses [][]interest.ID) float64 {
	t, p := m.ActivityGrid()
	s := 0.0
	for k, tk := range t {
		prod := 1.0
		for _, clause := range clauses {
			miss := 1.0
			for _, id := range clause {
				miss *= math.Exp(-tk * m.Lambda(id))
			}
			prod *= 1 - miss
			if prod == 0 {
				break
			}
		}
		s += p[k] * prod
	}
	return s
}

// TestRowKernelBitIdentical is the hoisting contract at the model level:
// every evaluation path — incremental And, whole conjunctions, resumed
// queries and flexible_spec unions — must return the exact bits of the
// inline-exp() references above.
func TestRowKernelBitIdentical(t *testing.T) {
	on := rowTestModel(t)
	r := rng.New(21)
	catLen := on.Catalog().Len()
	randIDs := func(n int) []interest.ID {
		ids := make([]interest.ID, n)
		for i := range ids {
			ids[i] = interest.ID(r.Intn(catLen))
		}
		return ids
	}
	// Whole conjunctions and per-prefix shares.
	for trial := 0; trial < 60; trial++ {
		ids := randIDs(1 + r.Intn(25))
		want := inlineExpShares(on, ids)
		qOn := on.NewQuery()
		for i, id := range ids {
			qOn.And(id)
			if a, b := qOn.Share(), want[i]; !bitsEqual(a, b) {
				t.Fatalf("trial %d prefix %d: kernel %v != inline exp %v", trial, i+1, a, b)
			}
		}
		if a, b := on.ConjunctionShare(ids), want[len(ids)-1]; !bitsEqual(a, b) {
			t.Fatalf("trial %d: ConjunctionShare kernel %v != inline exp %v", trial, a, b)
		}
		// Resuming mid-conjunction must agree too (the audience engine's
		// extension path).
		if len(ids) > 2 {
			half := len(ids) / 2
			qh := on.NewQuery()
			for _, id := range ids[:half] {
				qh.And(id)
			}
			res := on.BorrowResumeQuery(qh.Survivors(), half)
			for _, id := range ids[half:] {
				res.And(id)
			}
			if a, b := res.Share(), want[len(ids)-1]; !bitsEqual(a, b) {
				t.Fatalf("trial %d: resumed kernel %v != inline exp %v", trial, a, b)
			}
			res.Release()
		}
	}
	// flexible_spec unions: mixed single- and multi-interest clauses,
	// including the degenerate pure-conjunction shape.
	for trial := 0; trial < 60; trial++ {
		clauses := make([][]interest.ID, 1+r.Intn(6))
		for c := range clauses {
			clauses[c] = randIDs(1 + r.Intn(4))
		}
		if a, b := on.UnionConjunctionShare(clauses), inlineExpUnionShare(on, clauses); !bitsEqual(a, b) {
			t.Fatalf("trial %d: union kernel %v != inline exp %v (clauses %v)", trial, a, b, clauses)
		}
	}
}

// TestRowKernelLaziness pins the memory contract: no rows at construction,
// one row per touched interest, full table after WarmAllRows, empty after
// ResetRows.
func TestRowKernelLaziness(t *testing.T) {
	on := rowTestModel(t)
	if n, b := on.RowStats(); n != 0 || b != 0 {
		t.Fatalf("fresh model has %d rows (%d bytes) materialized", n, b)
	}
	ids := []interest.ID{3, 99, 711, 3, 99} // 3 distinct
	on.ConjunctionShare(ids)
	grid := len(on.actT)
	if n, b := on.RowStats(); n != 3 || b != int64(3*grid*8) {
		t.Fatalf("after touching 3 distinct interests: %d rows, %d bytes", n, b)
	}
	on.WarmRows(5, 6, 7)
	if n, _ := on.RowStats(); n != 6 {
		t.Fatalf("after WarmRows(3 more): %d rows", n)
	}
	on.WarmAllRows()
	if n, _ := on.RowStats(); n != on.Catalog().Len() {
		t.Fatalf("after WarmAllRows: %d rows, want %d", n, on.Catalog().Len())
	}
	on.ResetRows()
	if n, b := on.RowStats(); n != 0 || b != 0 {
		t.Fatalf("after ResetRows: %d rows, %d bytes", n, b)
	}
}

// TestRowInterning checks concurrent first touches intern one canonical row.
func TestRowInterning(t *testing.T) {
	on := rowTestModel(t)
	const goroutines = 8
	rows := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows[g] = on.row(42)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &rows[g][0] != &rows[0][0] {
			t.Fatalf("goroutine %d holds a different row backing array", g)
		}
	}
	if n, _ := on.RowStats(); n != 1 {
		t.Fatalf("%d rows materialized for one interest", n)
	}
}

// TestBorrowQueryPool checks the pooled query API matches the allocating one
// and that released state cannot leak into the next borrow.
func TestBorrowQueryPool(t *testing.T) {
	on := rowTestModel(t)
	ids := []interest.ID{10, 20, 30, 40}
	want := on.ConjunctionShare(ids)

	q := on.BorrowQuery()
	for _, id := range ids {
		q.And(id)
	}
	if got := q.Share(); !bitsEqual(got, want) {
		t.Fatalf("borrowed query %v != %v", got, want)
	}
	surv := q.Survivors()
	q.Release()

	// A fresh borrow (very likely the recycled object) must start clean:
	// bit-equal to a brand-new query's empty share (Σ actP, not exactly 1).
	q2 := on.BorrowQuery()
	if got, fresh := q2.Share(), on.NewQuery().Share(); !bitsEqual(got, fresh) {
		t.Fatalf("recycled query not reset: empty share %v, want %v", got, fresh)
	}
	if q2.Len() != 0 {
		t.Fatalf("recycled query Len %d, want 0", q2.Len())
	}
	q2.Release()

	// BorrowResumeQuery must restore the exact survivor state.
	q3 := on.BorrowResumeQuery(surv, len(ids))
	if got := q3.Share(); !bitsEqual(got, want) {
		t.Fatalf("resumed borrowed query %v != %v", got, want)
	}
	if q3.Len() != len(ids) {
		t.Fatalf("resumed borrowed query Len %d != %d", q3.Len(), len(ids))
	}
	q3.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("BorrowResumeQuery accepted a wrong-length survivor vector")
		}
	}()
	on.BorrowResumeQuery(make([]float64, 3), 1)
}
