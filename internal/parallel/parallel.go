// Package parallel is the deterministic fan-out engine behind every hot
// path of the uniqueness pipeline: per-user sample collection, bootstrap
// resampling, campaign fan-out and panel risk scans, plus the block loops
// of world construction (Blocks).
//
// # Determinism contract
//
// Parallel execution must be byte-identical to sequential execution under a
// fixed seed. The engine guarantees its half of that contract:
//
//   - results are delivered in task-index order (Map/MapReduce), regardless
//     of completion order;
//   - the error returned is the one raised by the LOWEST-indexed failing
//     task, exactly what a sequential loop would have returned (tasks are
//     claimed in index order, so any failing task with a smaller index has
//     already been claimed — and is allowed to finish — before a later
//     failure cancels the run);
//   - SplitAt derives a task's random stream from the parent generator's
//     state plus the stable task index, never from execution order.
//
// Callers supply the other half: task bodies must not share mutable state
// (or must synchronize it), and must draw randomness only from their own
// split stream.
//
// Workers(1) short-circuits to a plain loop on the caller's goroutine — the
// exact legacy sequential path, with zero goroutine overhead.
package parallel

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"nanotarget/internal/rng"
)

// Workers normalizes a parallelism knob: 0 (or negative) means "use the
// hardware", i.e. runtime.GOMAXPROCS(0); any positive value is taken as-is.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SplitAt derives the random stream for task i of a labeled fan-out. The
// stream depends only on the parent's state, the label and the index, so
// every schedule — sequential, 2 workers, 64 workers — hands task i the
// same stream. The parent is read, never advanced.
func SplitAt(parent *rng.Rand, label string, i int) *rng.Rand {
	return parent.Derive(label + "/" + strconv.Itoa(i))
}

// Split derives all n task streams of a labeled fan-out at once.
func Split(parent *rng.Rand, label string, n int) []*rng.Rand {
	out := make([]*rng.Rand, n)
	for i := range out {
		out[i] = SplitAt(parent, label, i)
	}
	return out
}

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (normalized via Workers). It returns the error of the lowest-indexed
// failing task, or the context error if ctx is cancelled first.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachWorker(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the executing worker's id (in [0, workers))
// passed to fn, so callers can maintain per-worker scratch buffers without
// allocation per task. A worker runs its tasks sequentially; two calls with
// the same worker id never overlap.
func ForEachWorker(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx int
		firstErr error
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				// Stop claiming after cancellation; tasks already claimed run
				// to completion, which is what makes the lowest-index error
				// guarantee hold (see the package comment).
				if runCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					record(i, err)
					return
				}
			}
		}(wk)
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Blocks splits [0, n) into at most GOMAXPROCS contiguous blocks of near
// equal length and calls fn(lo, hi) once per block, each on its own
// goroutine, the caller's goroutine taking the first block; it returns when
// every block is done. With one block (GOMAXPROCS 1, or n 1) it calls
// fn(0, n) and starts no goroutine. It is ForEach for loops whose
// iterations are uniform, independent and cannot fail: no context, no
// per-item claim, and one goroutine per block. Each index lands in exactly
// one block, so a loop whose iteration i writes only slot i gives the same
// bits at any GOMAXPROCS.
func Blocks(n int, fn func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for b := 1; b < w; b++ {
		lo, hi := n*b/w, n*(b+1)/w
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	fn(0, n/w)
	wg.Wait()
}

// Map runs fn for every index and returns the results in index order.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapReduce maps in parallel, then folds the results sequentially in strict
// index order — associativity of reduce is NOT required, so non-commutative
// aggregations (append, first-wins) stay deterministic.
func MapReduce[T, A any](ctx context.Context, n, workers int, acc A, mapFn func(i int) (T, error), reduce func(acc A, v T, i int) A) (A, error) {
	vals, err := Map(ctx, n, workers, mapFn)
	if err != nil {
		var zero A
		return zero, err
	}
	for i, v := range vals {
		acc = reduce(acc, v, i)
	}
	return acc, nil
}
