package population

// The inclusion-row kernel.
//
// Audience evaluation is dominated by one inner loop: for every activity
// grid point t_k and every interest i in the conjunction, form the inclusion
// probability q(t_k, λᵢ) = 1 − exp(−t_k·λᵢ) and multiply it into the
// survivor product. The exp() calls are what make a cold conjunction
// expensive — an 18-interest conjunction at the default 512-point grid is
// 9,216 transcendental evaluations — yet per interest they always produce
// the same grid-length vector. The kernel materializes that vector ONCE per
// interest as an immutable row and turns every evaluation path (Query.And,
// ConjunctionShare, UnionConjunctionShare) into contiguous multiply loops.
//
// # Bit-identity by hoisting
//
// A row stores e_i[k] = exp(−t_k·λᵢ), the survival (miss) factor. Both
// consumers then compute the exact expressions the pre-kernel code computed
// inline:
//
//   - Query.And multiplies 1 − e_i[k] into the survivor product — the same
//     "1 - math.Exp(-t*lambda)" as before, with only the transcendental
//     hoisted out of the loop;
//   - UnionConjunctionShare multiplies e_i[k] into a clause's miss product —
//     the same "math.Exp(-t * m.lambda[id])" as before.
//
// Because the identical expression over identical inputs is evaluated (just
// earlier, and once), every result is bit-identical to the un-hoisted code.
// That code lives on only as test references: inlineExpShares and
// inlineExpUnionShare (rows_test.go), which TestRowKernelBitIdentical and
// FuzzRowKernel compare against bit for bit, and inlineExpSource (the
// module root's reference_test.go), against which
// TestRowKernelIsByteIdentical gates the full pipeline.
// Storing the miss factor rather than the inclusion probability is what lets
// ONE row serve both paths: 1−(1−x) is not an identity in floating point,
// so an inclusion-probability row could not reproduce the union path's bits.
//
// # Memory envelope and warming
//
// Rows materialize lazily on first touch, so memory tracks the working set:
// ActivityGridSize × 8 bytes per touched interest (4 KiB per interest at the
// default 512-point grid). The full-table envelope is
//
//	catalog size × grid × 8 bytes
//
// ≈ 80 MiB for a 20,000-interest catalog at the 512-point default grid, and
// ≈ 400 MiB for the paper's full 98,982-interest catalog — which is why lazy
// is the default. Serving deployments that want no first-touch latency can
// prewarm a known hot set with WarmRows, or the whole catalog with
// WarmAllRows (adsapi.ServerConfig.PrewarmRows does the latter).
//
// The table is a per-interest array of atomic pointers — the limiting case
// of sharding, one lock-free slot per interest. Racing first touches compute
// identical bits and a CompareAndSwap interns a single canonical row, so
// readers never lock and rows are immutable once published.

import (
	"math"
	"sync/atomic"

	"nanotarget/internal/interest"
)

// rowKernel is the lazily materialized, interned row table (see the file
// comment).
type rowKernel struct {
	slots []atomic.Pointer[[]float64]
	count atomic.Int64 // materialized rows, for RowStats
}

// initRows allocates the (empty) row table for the catalog. Called once at
// construction; ~8 bytes per interest until rows materialize.
func (m *Model) initRows() {
	m.rows = &rowKernel{slots: make([]atomic.Pointer[[]float64], m.catalog.Len())}
}

// row returns interest id's survival-factor row e[k] = exp(−t_k·λ), building
// and interning it on first touch. Returned rows are immutable and safe to
// hold without synchronization.
func (m *Model) row(id interest.ID) []float64 {
	rk := m.rows
	slot := &rk.slots[id]
	if p := slot.Load(); p != nil {
		return *p
	}
	row := make([]float64, len(m.actT))
	lambda := m.lambda[id]
	for k, t := range m.actT {
		row[k] = math.Exp(-t * lambda)
	}
	if slot.CompareAndSwap(nil, &row) {
		rk.count.Add(1)
		return row
	}
	// A racing first touch won the intern; both computed identical bits.
	return *slot.Load()
}

// WarmRows materializes the rows of the given interests so subsequent
// evaluations touching them pay no first-touch exp() cost. Safe for
// concurrent use.
func (m *Model) WarmRows(ids ...interest.ID) {
	for _, id := range ids {
		m.row(id)
	}
}

// WarmAllRows materializes every catalog row — the full-table envelope
// documented in the file comment (catalog × grid × 8 bytes; ≈ 400 MiB at
// paper scale, so reach for WarmRows with a hot set first). Cost is one
// exp() per (interest, grid point); ~1s for the full paper catalog.
func (m *Model) WarmAllRows() {
	for id := 0; id < len(m.rows.slots); id++ {
		m.row(interest.ID(id))
	}
}

// RowStats reports how many rows are materialized and the bytes they hold
// (diagnostics; the lazy/prewarm trade documented above).
func (m *Model) RowStats() (rows int, bytes int64) {
	n := int(m.rows.count.Load())
	return n, int64(n) * int64(len(m.actT)) * 8
}

// ResetRows drops every materialized row (bench/test use: measuring the
// first-touch cost repeatably) by swapping in a fresh empty table. Not safe
// to call concurrently with queries.
func (m *Model) ResetRows() { m.initRows() }

// --- Pooled query and scratch vectors (the zero-allocation warm path) ---

// BorrowQuery is NewQuery backed by the model's query pool: the returned
// query (and its grid-length survivor vector) is recycled when the caller
// hands it back via Release. The audience engine's prefix walks borrow one
// query per cache-miss walk instead of allocating one.
func (m *Model) BorrowQuery() *Query {
	q := m.pooledQuery()
	for i := range q.partial {
		q.partial[i] = 1
	}
	q.n = 0
	return q
}

// BorrowResumeQuery reconstructs a query from a survivor vector previously
// obtained via Query.Survivors (n is the number of interests it
// accumulated), backed by the query pool: the survivor vector is copied
// into recycled storage (one copy — the mutation And performs requires
// it — but no allocation), so the caller's copy stays untouched.
func (m *Model) BorrowResumeQuery(survivors []float64, n int) *Query {
	if len(survivors) != len(m.actT) {
		panic("population: BorrowResumeQuery survivor vector does not match the activity grid")
	}
	q := m.pooledQuery()
	copy(q.partial, survivors)
	q.n = n
	return q
}

func (m *Model) pooledQuery() *Query {
	if v := m.queryPool.Get(); v != nil {
		return v.(*Query)
	}
	return &Query{m: m, partial: make([]float64, len(m.actT))}
}

// Release returns a borrowed query to its model's pool. The query (and any
// survivor view of it) must not be used afterwards. Calling Release on a
// query from NewQuery is allowed and simply donates it.
func (q *Query) Release() {
	if q.m == nil {
		return
	}
	q.m.queryPool.Put(q)
}

// borrowVec hands out a dirty grid-length scratch vector from the pool
// (callers initialize it); returnVec recycles it. The pool round-trips the
// *[]float64 box itself so neither direction allocates.
func (m *Model) borrowVec() *[]float64 {
	if v := m.vecPool.Get(); v != nil {
		return v.(*[]float64)
	}
	v := make([]float64, len(m.actT))
	return &v
}

func (m *Model) returnVec(v *[]float64) {
	m.vecPool.Put(v)
}
