package worklist

import (
	"sync/atomic"
	"testing"
)

func TestBagPushPop(t *testing.T) {
	var b Bag
	if b.PopChunk() != nil {
		t.Fatal("zero bag not empty")
	}
	b.PushChunk([]uint32{1, 2, 3})
	b.PushChunk(nil) // no-op
	if c := b.PopChunk(); len(c) != 3 {
		t.Fatalf("chunk = %v", c)
	}
	if b.PopChunk() != nil {
		t.Fatal("pop from empty returned chunk")
	}
}

func TestRunDrainsInitial(t *testing.T) {
	e := &Executor{Workers: 4}
	var sum, applied atomic.Uint64
	initial := make([]uint32, 1000)
	for i := range initial {
		initial[i] = uint32(i)
	}
	e.Run(initial, func(item uint32, push func(uint32)) {
		applied.Add(1)
		sum.Add(uint64(item))
	})
	if applied.Load() != 1000 {
		t.Fatalf("applied %d", applied.Load())
	}
	if sum.Load() != 999*1000/2 {
		t.Fatalf("sum %d", sum.Load())
	}
}

func TestRunTransitivePush(t *testing.T) {
	// Each item i < 1000 pushes i+1000; those push nothing.
	e := &Executor{Workers: 4}
	var count atomic.Uint64
	initial := make([]uint32, 1000)
	for i := range initial {
		initial[i] = uint32(i)
	}
	e.Run(initial, func(item uint32, push func(uint32)) {
		count.Add(1)
		if item < 1000 {
			push(item + 1000)
		}
	})
	if count.Load() != 2000 {
		t.Fatalf("applied %d", count.Load())
	}
}

func TestRunDeepChain(t *testing.T) {
	// A single chain of 100k pushes must fully drain (tests the pending
	// counter under minimal parallelism).
	e := &Executor{Workers: 2}
	var depth atomic.Uint64
	e.Run([]uint32{0}, func(item uint32, push func(uint32)) {
		depth.Add(1)
		if item < 100000 {
			push(item + 1)
		}
	})
	if depth.Load() != 100001 {
		t.Fatalf("chain depth %d", depth.Load())
	}
}

func TestRunEmptyInitial(t *testing.T) {
	e := &Executor{Workers: 4}
	e.Run(nil, func(uint32, func(uint32)) {
		t.Fatal("op called with no work")
	})
}

func TestRunFanOut(t *testing.T) {
	// One seed pushes 64 children; each child pushes 8 grandchildren.
	e := &Executor{Workers: 8}
	var total atomic.Uint64
	e.Run([]uint32{1 << 20}, func(item uint32, push func(uint32)) {
		total.Add(1)
		switch {
		case item == 1<<20:
			for i := uint32(0); i < 64; i++ {
				push(i)
			}
		case item < 64:
			for i := uint32(0); i < 8; i++ {
				push(1000 + item*8 + i)
			}
		}
	})
	want := uint64(1 + 64 + 64*8)
	if total.Load() != want {
		t.Fatalf("applied %d, want %d", total.Load(), want)
	}
}

// TestRunReusesItsState: one Executor runs back to back, on one worker and
// on four, reusing its chunks and workers; each run drains exactly, and on
// one worker a run allocates nothing once the chunks exist.
func TestRunReusesItsState(t *testing.T) {
	initial := make([]uint32, 1000)
	for i := range initial {
		initial[i] = uint32(i)
	}
	var count atomic.Uint64
	op := func(item uint32, push func(uint32)) {
		count.Add(1)
		if item < 1000 {
			push(item + 1000)
		}
	}
	for _, workers := range []int{1, 4} {
		e := &Executor{Workers: workers}
		for run := 0; run < 3; run++ {
			count.Store(0)
			if e.Run(initial, op); count.Load() != 2000 {
				t.Fatalf("%d workers, run %d: applied %d", workers, run, count.Load())
			}
		}
		if workers == 1 {
			if n := testing.AllocsPerRun(5, func() { e.Run(initial, op) }); n != 0 {
				t.Errorf("one worker: %v allocations per run, want 0", n)
			}
		}
	}
}

func BenchmarkRunThroughput(b *testing.B) {
	e := &Executor{Workers: 4}
	initial := make([]uint32, 1<<14)
	for i := range initial {
		initial[i] = uint32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(initial, func(item uint32, push func(uint32)) {})
	}
}
