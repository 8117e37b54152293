package population

import (
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
)

// FuzzRowKernel is the differential fuzz target for the inclusion-row
// kernel: random conjunctions and flexible_spec unions — mixed clause
// widths, one-interest clauses, IDs repeated within and across clauses —
// evaluated by the kernel (Query.And prefix shares, ConjunctionShare,
// UnionConjunctionShare) and by the inline-exp references inlineExpShares
// and inlineExpUnionShare, asserting bit equality. Everything derives from
// the fuzzed seed and shape bytes, so the corpus stays byte-small.
func FuzzRowKernel(f *testing.F) {
	f.Add(uint64(1), uint8(18), uint8(5), uint8(4), uint8(0))
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(42), uint8(24), uint8(7), uint8(5), uint8(3))
	m := rowTestModel(f)
	catLen := m.Catalog().Len()
	f.Fuzz(func(t *testing.T, seed uint64, lenRaw, clausesRaw, widthRaw, poolRaw uint8) {
		r := rng.New(seed)
		// A non-zero pool draws every ID from that many catalog IDs, so
		// IDs repeat; pool 0 draws from the whole catalog.
		pool := make([]interest.ID, int(poolRaw)%8)
		for i := range pool {
			pool[i] = interest.ID(r.Intn(catLen))
		}
		draw := func() interest.ID {
			if len(pool) == 0 {
				return interest.ID(r.Intn(catLen))
			}
			return pool[r.Intn(len(pool))]
		}

		ids := make([]interest.ID, 1+int(lenRaw)%25)
		for i := range ids {
			ids[i] = draw()
		}
		want := inlineExpShares(m, ids)
		q := m.BorrowQuery()
		for i, id := range ids {
			if got := q.And(id).Share(); !bitsEqual(got, want[i]) {
				t.Fatalf("prefix %d of %v: kernel %v != inline exp %v", i+1, ids, got, want[i])
			}
		}
		q.Release()
		if got := m.ConjunctionShare(ids); !bitsEqual(got, want[len(ids)-1]) {
			t.Fatalf("ConjunctionShare(%v): kernel %v != inline exp %v", ids, got, want[len(ids)-1])
		}

		maxWidth := 1 + int(widthRaw)%6
		clauses := make([][]interest.ID, 1+int(clausesRaw)%8)
		for c := range clauses {
			clause := make([]interest.ID, 1+r.Intn(maxWidth))
			for i := range clause {
				clause[i] = draw()
			}
			clauses[c] = clause
		}
		if got, want := m.UnionConjunctionShare(clauses), inlineExpUnionShare(m, clauses); !bitsEqual(got, want) {
			t.Fatalf("UnionConjunctionShare(%v): kernel %v != inline exp %v", clauses, got, want)
		}
	})
}
