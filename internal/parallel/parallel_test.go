package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"nanotarget/internal/rng"
)

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must default to at least 1")
	}
	if Workers(1) != 1 || Workers(7) != 7 {
		t.Fatal("positive knob must be taken as-is")
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 500
		var hits [n]atomic.Int32
		err := ForEach(context.Background(), n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	// Indices 100 and 400 fail; the sequential answer is the error at 100.
	want := errors.New("boom-100")
	for _, workers := range []int{1, 4, 16} {
		err := ForEach(context.Background(), 500, workers, func(i int) error {
			switch i {
			case 100:
				return want
			case 400:
				return errors.New("boom-400")
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, want)
		}
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 1_000_000, 4, func(i int) error {
		if ran.Add(1) == 50 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if total := ran.Load(); total >= 1_000_000 {
		t.Fatal("cancellation did not stop the fan-out")
	}
}

func TestMapOrdersResults(t *testing.T) {
	out, err := Map(context.Background(), 1000, 8, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapReduceIsOrderDeterministic(t *testing.T) {
	// A non-commutative reduction (string append) must come out in index
	// order under any worker count.
	want := ""
	for i := 0; i < 64; i++ {
		want += fmt.Sprint(i, ",")
	}
	for _, workers := range []int{1, 3, 32} {
		got, err := MapReduce(context.Background(), 64, workers, "",
			func(i int) (string, error) { return fmt.Sprint(i, ","), nil },
			func(acc, v string, _ int) string { return acc + v })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: reduction out of order", workers)
		}
	}
}

func TestForEachWorkerScratchIsolation(t *testing.T) {
	const workers = 8
	scratch := make([]int, workers) // written without locks: per-worker slots
	err := ForEachWorker(context.Background(), 10_000, workers, func(worker, i int) error {
		scratch[worker]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range scratch {
		total += c
	}
	if total != 10_000 {
		t.Fatalf("scratch counts sum to %d", total)
	}
}

func TestSplitAtIndependentOfSchedule(t *testing.T) {
	parent := rng.New(42)
	// Derive in two different "orders"; streams must match index-wise.
	forward := make([]uint64, 16)
	for i := range forward {
		forward[i] = SplitAt(parent, "task", i).Uint64()
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := SplitAt(parent, "task", i).Uint64(); got != forward[i] {
			t.Fatalf("task %d stream depends on derivation order", i)
		}
	}
	// Split must agree with SplitAt.
	all := Split(parent, "task", 16)
	for i, r := range all {
		if got := r.Uint64(); got != forward[i] {
			t.Fatalf("Split[%d] != SplitAt(%d)", i, i)
		}
	}
	// Distinct indices must get distinct streams.
	if forward[0] == forward[1] {
		t.Fatal("adjacent task streams collide")
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 0, 8, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksCoversEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 1000} {
			hits := make([]atomic.Int32, n)
			var blocks atomic.Int32
			Blocks(n, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("procs=%d n=%d: empty block [%d, %d)", procs, n, lo, hi)
				}
				blocks.Add(1)
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("procs=%d n=%d: index %d covered %d times", procs, n, i, got)
				}
			}
			if got, want := int(blocks.Load()), min(procs, n); got != want {
				t.Fatalf("procs=%d n=%d: %d blocks, want %d", procs, n, got, want)
			}
		}
	}
}

// TestBlocksStartsNoGoroutineOnOneCore pins the sequential path: at
// GOMAXPROCS 1 the whole range runs on the caller's goroutine.
func TestBlocksStartsNoGoroutineOnOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := runtime.NumGoroutine()
	calls := 0
	Blocks(1000, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1000 {
			t.Errorf("block [%d, %d), want [0, 1000)", lo, hi)
		}
		if got := runtime.NumGoroutine(); got != before {
			t.Errorf("%d goroutines inside the block, %d before the call", got, before)
		}
	})
	if calls != 1 {
		t.Fatalf("%d calls, want 1", calls)
	}
}

// TestBlocksAllocations bounds the fan-out's own allocations, which every
// world build pays: none on one core, and beyond it the WaitGroup plus one
// closure per started goroutine. (testing.AllocsPerRun would pin
// GOMAXPROCS to 1, so the count is read off the heap statistics.)
func TestBlocksAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sink := make([]float64, 1000)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		const runs = 200
		Blocks(len(sink), fn) // warm the runtime's goroutine free list
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			Blocks(len(sink), fn)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / runs
		want := float64(procs)
		if procs == 1 {
			want = 0
		}
		// Half an alloc of slack absorbs the runtime's occasional own
		// allocation (a fresh goroutine record) over the runs.
		if got > want+0.5 {
			t.Errorf("GOMAXPROCS %d: %.2f allocs per call, want at most %v", procs, got, want)
		}
	}
}
