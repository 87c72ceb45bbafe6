package fields

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"gluon/internal/bitset"
)

func TestAtomicAddF64Bits(t *testing.T) {
	var bits uint64
	AtomicAddF64Bits(&bits, 1.5)
	AtomicAddF64Bits(&bits, 2.25)
	if got := LoadF64Bits(&bits); got != 3.75 {
		t.Fatalf("sum %v", got)
	}
}

// TestAtomicAddF64BitsConcurrent: concurrent adds never lose mass.
func TestAtomicAddF64BitsConcurrent(t *testing.T) {
	var bits uint64
	var wg sync.WaitGroup
	const workers, adds = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				AtomicAddF64Bits(&bits, 0.5)
			}
		}()
	}
	wg.Wait()
	if got := LoadF64Bits(&bits); got != workers*adds*0.5 {
		t.Fatalf("sum %v, want %v", got, workers*adds*0.5)
	}
}

func TestSumF64BitsSpec(t *testing.T) {
	a := SumF64Bits{Bits: make([]uint64, 4)}
	ch := marked(func(c *bitset.Bitset) { a.Reduce([]uint32{0, 2, 3}, []float64{0, 2.5, 1}, c) })
	got := make([]float64, 4)
	a.Extract([]uint32{0, 1, 2, 3}, got)
	if !slices.Equal(got, []float64{0, 0, 2.5, 1}) || !slices.Equal(ch, []uint32{2, 3}) {
		t.Fatalf("reduce: values %v, changed %v (a zero add is not a change)", got, ch)
	}
	a.Reset([]uint32{2})
	if a.Extract([]uint32{2, 3}, got[:2]); !slices.Equal(got[:2], []float64{0, 1}) {
		t.Fatalf("reset: %v", got[:2])
	}
}

func TestSetF64BitsSpec(t *testing.T) {
	s := SetF64Bits{Bits: make([]uint64, 2)}
	s.Set([]uint32{1, 0}, []float64{1.25, -3})
	got := make([]float64, 2)
	if s.Extract([]uint32{0, 1}, got); !slices.Equal(got, []float64{-3, 1.25}) {
		t.Fatalf("set/extract: %v", got)
	}
}

// TestQuickBitsRoundTrip: any float survives the bits representation.
func TestQuickBitsRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true // NaN != NaN; representation still exact
		}
		var bits uint64
		AtomicAddF64Bits(&bits, v)
		return LoadF64Bits(&bits) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
