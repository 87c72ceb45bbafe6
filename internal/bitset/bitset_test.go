package bitset

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	b := New(130)
	for _, i := range []uint32{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Test(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestCountAndAny(t *testing.T) {
	b := New(200)
	if b.Any() || b.Count() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	idx := []uint32{3, 64, 65, 199}
	for _, i := range idx {
		b.Set(i)
	}
	if got := b.Count(); got != uint32(len(idx)) {
		t.Fatalf("Count = %d, want %d", got, len(idx))
	}
	if !b.Any() {
		t.Fatal("Any = false with bits set")
	}
	b.Reset()
	if b.Any() || b.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSetAllTrimsTail(t *testing.T) {
	for _, n := range []uint32{1, 63, 64, 65, 100, 128} {
		b := New(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Count after SetAll = %d", n, got)
		}
	}
}

func TestForEachOrderAndIndices(t *testing.T) {
	b := New(300)
	want := []uint32{0, 7, 64, 128, 255, 299}
	for _, i := range want {
		b.Set(i)
	}
	got := b.AppendIndices(nil)
	if len(got) != len(want) {
		t.Fatalf("indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indices[%d] = %d, want %d (ascending order)", i, got[i], want[i])
		}
	}
}

func TestNextSet(t *testing.T) {
	b := New(200)
	b.Set(5)
	b.Set(64)
	b.Set(199)
	cases := []struct{ from, want uint32 }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {200, 200},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := b.NextSet(1000); got != 200 {
		t.Errorf("NextSet past end = %d, want Len", got)
	}
}

func TestUnionAndClone(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	b.Set(2)
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.Test(1) || !a.Test(2) {
		t.Fatal("union missing bits")
	}
	c := a.Clone()
	c.Set(50)
	if a.Test(50) {
		t.Fatal("Clone shares storage")
	}
	if err := a.Union(New(99)); err == nil {
		t.Fatal("Union with mismatched length did not error")
	}
	if err := a.CopyFrom(New(99)); err == nil {
		t.Fatal("CopyFrom with mismatched length did not error")
	}
}

func TestFromWords(t *testing.T) {
	if _, err := FromWords([]uint64{1}, 128); err == nil {
		t.Fatal("FromWords accepted too-short slice")
	}
	b, err := FromWords([]uint64{0b101}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Test(0) || b.Test(1) || !b.Test(2) {
		t.Fatal("FromWords bits wrong")
	}
}

func TestCountRange(t *testing.T) {
	b := New(128)
	for _, i := range []uint32{0, 10, 63, 64, 127} {
		b.Set(i)
	}
	if got := b.CountRange(0, 128); got != 5 {
		t.Fatalf("CountRange full = %d", got)
	}
	if got := b.CountRange(1, 64); got != 2 {
		t.Fatalf("CountRange(1,64) = %d, want 2", got)
	}
	if got := b.CountRange(64, 64); got != 0 {
		t.Fatalf("CountRange empty = %d", got)
	}
	if got := b.CountRange(100, 500); got != 1 {
		t.Fatalf("CountRange clamped = %d, want 1", got)
	}
}

func TestString(t *testing.T) {
	b := New(16)
	b.Set(1)
	b.Set(5)
	if got := b.String(); got != "{1,5}/16" {
		t.Fatalf("String = %q", got)
	}
}

// TestQuickCountMatchesNaive: for arbitrary index sets, Count equals the
// size of the deduplicated set and Test matches membership.
func TestQuickCountMatchesNaive(t *testing.T) {
	f := func(indices []uint32) bool {
		const n = 512
		b := New(n)
		member := map[uint32]bool{}
		for _, i := range indices {
			i %= n
			b.Set(i)
			member[i] = true
		}
		if b.Count() != uint32(len(member)) {
			return false
		}
		for i := uint32(0); i < n; i++ {
			if b.Test(i) != member[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickForEachIsSortedMembership: ForEach visits exactly the member
// set in strictly ascending order.
func TestQuickForEachIsSortedMembership(t *testing.T) {
	f := func(indices []uint32) bool {
		const n = 1024
		b := New(n)
		for _, i := range indices {
			b.Set(i % n)
		}
		prev := -1
		ok := true
		b.ForEach(func(i uint32) {
			if int(i) <= prev || !b.Test(i) {
				ok = false
			}
			prev = int(i)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendIndicesMatchesForEach: the word loop lists exactly what ForEach
// visits, in the same order, after whatever dst already held — on lengths
// that end mid-word, with the tail word's last bit among the candidates.
func TestAppendIndicesMatchesForEach(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := uint32(1 + r.Intn(700))
		b := New(n)
		for i := r.Intn(int(n)); i > 0; i-- {
			b.Set(uint32(r.Intn(int(n))))
		}
		if r.Intn(2) == 0 {
			b.Set(n - 1)
		}
		want := []uint32{7}
		b.ForEach(func(i uint32) { want = append(want, i) })
		return slices.Equal(b.AppendIndices([]uint32{7}), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPairAlternates: Next hands the two sets out in turn, cleared, and
// never the one it is given, whatever it is given.
func TestPairAlternates(t *testing.T) {
	p := NewPair(100)
	outside := New(100)
	a := p.Next(outside)
	a.Set(3)
	b := p.Next(a)
	if b == a || b == outside || b.Any() {
		t.Fatalf("second Next returned %p (first %p), holding %v", b, a, b)
	}
	b.Set(4)
	if c := p.Next(b); c != a || c.Any() {
		t.Fatalf("third Next did not reuse the first set, cleared: %v", c)
	}
	if d := p.Next(b); d != a { // the set due next is the one handed in
		t.Fatal("Next returned the set it was given")
	}
	if !b.Test(4) {
		t.Fatal("Next cleared the set it was given")
	}
}

func TestConcurrentSet(t *testing.T) {
	const n = 1 << 14
	b := New(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4096; i++ {
				b.Set(uint32(r.Intn(n)))
			}
		}(w)
	}
	wg.Wait()
	// Every set bit must be testable; count must equal ForEach visits.
	var visits uint32
	b.ForEach(func(i uint32) { visits++ })
	if visits != b.Count() {
		t.Fatalf("ForEach visits %d != Count %d", visits, b.Count())
	}
}

// TestBatchedEqualsPerBit: SetMany and Marker leave the set a loop of Set
// leaves, for ascending, unsorted and repeated indices, and OrderMask.ClearIn
// the set a loop of Clear leaves.
func TestBatchedEqualsPerBit(t *testing.T) {
	f := func(seed int64, ascending bool) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 300
		idx := make([]uint32, r.Intn(200))
		for i := range idx {
			idx[i] = uint32(r.Intn(n))
		}
		if ascending {
			slices.Sort(idx)
		}
		want, many, marker := New(n), New(n), New(n)
		m := marker.Marker()
		for _, i := range idx {
			want.Set(i)
			m.Set(i)
		}
		m.Flush()
		many.SetMany(idx)
		if !slices.Equal(many.words, want.words) || !slices.Equal(marker.words, want.words) {
			return false
		}
		// Clear an order (strictly ascending) out of a full set.
		order := slices.Clone(idx)
		slices.Sort(order)
		order = slices.Compact(order)
		want.SetAll()
		many.SetAll()
		for _, i := range order {
			want.Clear(i)
		}
		NewOrderMask(order).ClearIn(many)
		return slices.Equal(many.words, want.words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	var nobody *Bitset
	m := nobody.Marker() // a Marker over nil records nothing
	m.Set(5)
	m.Flush()
	New(8).SetMany(nil)
}

// TestBatchedOpsShareWords: one goroutine sets, one clears an order and one marks
// interleaved bits of the same words — the sync pipeline's encoder clearing
// mirror bits while the receive loop marks masters across the shared
// boundary word. No update may be lost (and the race detector must stay
// quiet).
func TestBatchedOpsShareWords(t *testing.T) {
	const n = 64 * 40
	var setIdx, clearIdx, markIdx []uint32
	for i := uint32(0); i < n; i++ {
		switch i % 3 {
		case 0:
			setIdx = append(setIdx, i)
		case 1:
			clearIdx = append(clearIdx, i)
		default:
			markIdx = append(markIdx, i)
		}
	}
	for rep := 0; rep < 50; rep++ {
		b := New(n)
		b.SetMany(clearIdx)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); b.SetMany(setIdx) }()
		go func() { defer wg.Done(); NewOrderMask(clearIdx).ClearIn(b) }()
		go func() {
			defer wg.Done()
			m := b.Marker()
			for _, i := range markIdx {
				m.Set(i)
			}
			m.Flush()
		}()
		wg.Wait()
		for i := uint32(0); i < n; i++ {
			if b.Test(i) != (i%3 != 1) {
				t.Fatalf("rep %d: bit %d is %v", rep, i, b.Test(i))
			}
		}
	}
}

func BenchmarkSet(b *testing.B) {
	s := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(uint32(i) & (1<<20 - 1))
	}
}

func BenchmarkForEachSparse(b *testing.B) {
	s := New(1 << 20)
	for i := uint32(0); i < 1<<20; i += 997 {
		s.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ForEach(func(uint32) {})
	}
}

// TestClearRange: ClearRange clears exactly [lo, hi), whatever words the
// ends fall in.
func TestClearRange(t *testing.T) {
	const n = 200
	for _, r := range [][2]uint32{{0, n}, {0, 64}, {3, 5}, {63, 65}, {64, 128}, {10, 190}, {130, 131}, {7, 7}} {
		b := New(n)
		b.SetAll()
		b.ClearRange(r[0], r[1])
		for i := uint32(0); i < n; i++ {
			if want := i < r[0] || i >= r[1]; b.Test(i) != want {
				t.Fatalf("ClearRange(%d, %d): bit %d is %v", r[0], r[1], i, b.Test(i))
			}
		}
	}
}
