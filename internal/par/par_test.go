package par

import (
	"sync/atomic"
	"testing"
)

func TestForVisitsEach(t *testing.T) {
	const n = 1000
	var seen [n]uint32
	For(n, 4, func(i int) { atomic.AddUint32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-5, 4, func(int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestRangeCoversDisjoint(t *testing.T) {
	const n = 777
	var mask [n]uint32
	Range(n, 5, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddUint32(&mask[i], 1)
		}
	})
	for i, c := range mask {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestRangeSingleWorker(t *testing.T) {
	calls := 0
	Range(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("chunk [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls %d", calls)
	}
}

func TestRangeWorkersCoversDisjointWithSlots(t *testing.T) {
	const n = 777
	const workers = 5
	var mask [n]uint32
	var slotHits [workers]uint32
	err := RangeWorkers(n, workers, func(w, lo, hi int) error {
		atomic.AddUint32(&slotHits[w], 1)
		for i := lo; i < hi; i++ {
			atomic.AddUint32(&mask[i], 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range mask {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	for w, c := range slotHits {
		if c > 1 {
			t.Fatalf("worker slot %d used %d times", w, c)
		}
	}
}

func TestRangeWorkersError(t *testing.T) {
	wantErr := errSentinel("boom")
	var ran uint32
	err := RangeWorkers(100, 4, func(w, lo, hi int) error {
		atomic.AddUint32(&ran, uint32(hi-lo))
		if lo == 0 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if ran != 100 {
		t.Fatalf("only %d iterations ran; all bodies must complete", ran)
	}
	if err := RangeWorkers(0, 4, func(int, int, int) error { return wantErr }); err != nil {
		t.Fatal("body called for empty range")
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
