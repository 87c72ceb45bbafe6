package fields

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAtomicMinU32(t *testing.T) {
	v := uint32(10)
	if !AtomicMinU32(&v, 5) || v != 5 {
		t.Fatalf("min lower: %d", v)
	}
	if AtomicMinU32(&v, 5) {
		t.Fatal("min equal reported change")
	}
	if AtomicMinU32(&v, 7) || v != 5 {
		t.Fatalf("min higher changed value: %d", v)
	}
}

// TestAtomicMinU32Concurrent: under contention, the final value is the
// global minimum and exactly one goroutine observes each lowering.
func TestAtomicMinU32Concurrent(t *testing.T) {
	v := uint32(1 << 30)
	var changes int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := 0
			for i := 0; i < 1000; i++ {
				if AtomicMinU32(&v, uint32(1000-i+w)) {
					local++
				}
			}
			mu.Lock()
			changes += int64(local)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if v != 1 {
		t.Fatalf("final %d, want 1", v)
	}
	if changes < 1 || changes > 8*1000 {
		t.Fatalf("changes %d", changes)
	}
}

// specCase checks Min, Sum and Set over one element type against the
// literal Figure 5 semantics.
func specCase[V Value](t *testing.T) {
	vals := []V{5, 10}
	m := Min[V](vals)
	if m.Extract(0) != 5 {
		t.Error("Min.Extract")
	}
	if !m.Reduce(1, 3) || vals[1] != 3 {
		t.Error("Min.Reduce with a lower value must lower the label and report it")
	}
	if m.Reduce(1, 9) || m.Reduce(1, 3) || vals[1] != 3 {
		t.Error("Min.Reduce with a higher or equal value must be a silent no-op")
	}
	if m.Reset(0); vals[0] != 5 {
		t.Error("Min.Reset must keep the label: re-sending it is idempotent")
	}

	vals = []V{7, 1}
	a := Sum[V](vals)
	if a.Reduce(0, 0) || vals[0] != 7 {
		t.Error("Sum.Reduce of the identity must not be a change")
	}
	if !a.Reduce(0, 3) || a.Extract(0) != 10 {
		t.Error("Sum.Reduce must add and report it")
	}
	if a.Reset(0); vals[0] != 0 || vals[1] != 1 {
		t.Error("Sum.Reset must zero exactly that element")
	}

	vals = []V{1}
	s := Set[V](vals)
	if s.Set(0, 1) {
		t.Error("Set of the same value reported a change")
	}
	if !s.Set(0, 2) || s.Extract(0) != 2 {
		t.Error("Set of a new value must store and report it")
	}
}

// codecCase checks that vals encode to exactly wire (appended after what dst
// already holds), decode back bit for bit, and that DecodeVals rejects a
// length mismatch in either direction.
func codecCase[V Value](vals []V, wire []byte) func(*testing.T) {
	return func(t *testing.T) {
		if got := EncodeVals([]byte{0xAA}, vals); !bytes.Equal(got, append([]byte{0xAA}, wire...)) {
			t.Fatalf("encoded % x, want aa % x", got, wire)
		}
		back := make([]V, len(vals))
		if err := DecodeVals(wire, back); err != nil {
			t.Fatal(err)
		}
		if again := EncodeVals(nil, back); !bytes.Equal(again, wire) {
			t.Fatalf("round trip is not bit-exact: % x, want % x", again, wire)
		}
		if DecodeVals(wire[:len(wire)-1], back) == nil || DecodeVals(wire, back[:len(back)-1]) == nil {
			t.Fatal("wrong-length section accepted")
		}
	}
}

// TestSpecsAndCodecPerType: every element type × {Min, Sum, Set}, plus the
// checkpoint codec — including NaNs with payloads, quiet and signaling,
// which a float conversion anywhere on the path would rewrite.
func TestSpecsAndCodecPerType(t *testing.T) {
	for _, c := range []struct {
		name        string
		spec, codec func(*testing.T)
	}{
		{"uint32", specCase[uint32], codecCase([]uint32{1, 0xdeadbeef}, []byte{1, 0, 0, 0, 0xef, 0xbe, 0xad, 0xde})},
		{"uint64", specCase[uint64], codecCase([]uint64{1 << 56}, []byte{0, 0, 0, 0, 0, 0, 0, 1})},
		{"int32", specCase[int32], codecCase([]int32{-2, 3}, []byte{0xfe, 0xff, 0xff, 0xff, 3, 0, 0, 0})},
		{"int64", specCase[int64], codecCase([]int64{-2}, []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})},
		{"float32", specCase[float32], codecCase(
			[]float32{1.5, math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00123)},
			[]byte{0, 0, 0xc0, 0x3f, 1, 0, 0x80, 0x7f, 0x23, 0x01, 0xc0, 0xff})},
		{"float64", specCase[float64], codecCase(
			[]float64{math.Copysign(0, -1), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x7ff8000000000123)},
			[]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0x23, 0x01, 0, 0, 0, 0, 0xf8, 0x7f})},
	} {
		t.Run(c.name+"/specs", c.spec)
		t.Run(c.name+"/codec", c.codec)
	}
}

// TestQuickMinReduceIdempotent: reducing any sequence twice gives the same
// result as once (the property Gluon's dense mode depends on).
func TestQuickMinReduceIdempotent(t *testing.T) {
	f := func(vals []uint32) bool {
		a := []uint32{InfinityU32}
		b := []uint32{InfinityU32}
		ma, mb := Min[uint32](a), Min[uint32](b)
		for _, v := range vals {
			ma.Reduce(0, v)
			mb.Reduce(0, v)
			mb.Reduce(0, v) // duplicate delivery
		}
		return a[0] == b[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicStoreLoad(t *testing.T) {
	v := uint32(0)
	AtomicStoreU32(&v, 42)
	if AtomicLoadU32(&v) != 42 {
		t.Fatal("store/load")
	}
	u := uint64(1)
	if AtomicAddU64(&u, 2) != 3 {
		t.Fatal("add")
	}
}
