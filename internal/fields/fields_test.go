package fields

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"gluon/internal/bitset"
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

// marked lists the bits a spec call set in a fresh bitset of 4.
func marked(call func(changed *bitset.Bitset)) []uint32 {
	b := bitset.New(4)
	call(b)
	return b.AppendIndices(nil)
}

// specCase checks Min, Sum and Set over one element type against the
// literal Figure 5 semantics, a message of several values at a time.
func specCase[V Value](t *testing.T) {
	vals := []V{5, 10, 20, 30}
	m := Min[V](vals)
	got := make([]V, 2)
	if m.Extract([]uint32{2, 0}, got); !slices.Equal(got, []V{20, 5}) {
		t.Errorf("Min.Extract = %v", got)
	}
	// Lower, higher, equal: only the lowered label changes and is marked.
	ch := marked(func(c *bitset.Bitset) { m.Reduce([]uint32{1, 2, 3}, []V{3, 25, 30}, c) })
	if !slices.Equal(vals, []V{5, 3, 20, 30}) || !slices.Equal(ch, []uint32{1}) {
		t.Errorf("Min.Reduce: labels %v, changed %v", vals, ch)
	}
	m.Reduce([]uint32{0}, []V{1}, nil) // nobody tracking
	if m.Reset([]uint32{0, 1}); !slices.Equal(vals, []V{1, 3, 20, 30}) {
		t.Errorf("Min.Reset must keep the labels (re-sending is idempotent), got %v", vals)
	}

	vals = []V{7, 1, 2, 0}
	a := Sum[V](vals)
	// Adding the identity is not a change; lids need not ascend.
	ch = marked(func(c *bitset.Bitset) { a.Reduce([]uint32{3, 0, 1}, []V{4, 0, 3}, c) })
	if !slices.Equal(vals, []V{7, 4, 2, 4}) || !slices.Equal(ch, []uint32{1, 3}) {
		t.Errorf("Sum.Reduce: values %v, changed %v", vals, ch)
	}
	if a.Extract([]uint32{1, 3}, got); !slices.Equal(got, []V{4, 4}) {
		t.Errorf("Sum.Extract = %v", got)
	}
	if a.Reset([]uint32{0, 3}); !slices.Equal(vals, []V{0, 4, 2, 0}) {
		t.Errorf("Sum.Reset must zero exactly those elements, got %v", vals)
	}

	vals = []V{1, 2, 3, 4}
	s := Set[V](vals)
	s.Set([]uint32{3, 1}, []V{9, 2})
	if s.Extract([]uint32{1, 3}, got); !slices.Equal(vals, []V{1, 2, 3, 9}) || !slices.Equal(got, []V{2, 9}) {
		t.Errorf("Set.Set/Extract: values %v, extracted %v", vals, got)
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
			ma.Reduce([]uint32{0}, []uint32{v}, nil)
			mb.Reduce([]uint32{0, 0}, []uint32{v, v}, nil) // duplicate delivery
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
