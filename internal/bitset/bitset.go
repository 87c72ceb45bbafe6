// Package bitset provides a fixed-size bitset with optional atomic updates.
//
// Gluon uses bitsets in two roles described in the paper (§4.2): engines
// track which node fields changed during a computation round, and the
// communication runtime encodes "which proxies in the memoized order carry a
// value in this message" metadata. Both roles need fast parallel Set and a
// fast popcount/iteration path, which this package provides.
package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitset is a fixed-capacity set of bit indices in [0, Len).
// The zero value is an empty bitset of length 0; use New for a sized one.
//
// Concurrent use: Set, Clear and Test on distinct or identical indices are
// safe when performed through the atomic variants (Set uses atomic OR).
// Bulk operations (Reset, Union, words access) are not safe to run
// concurrently with mutators.
type Bitset struct {
	words []uint64
	n     uint32
}

// New returns an empty bitset capable of holding n bits.
func New(n uint32) *Bitset {
	return &Bitset{words: make([]uint64, (int(n)+wordBits-1)/wordBits), n: n}
}

// FromWords constructs a bitset of length n backed by the given words.
// The slice is used directly, not copied. It must contain at least
// ceil(n/64) words.
func FromWords(words []uint64, n uint32) (*Bitset, error) {
	need := (int(n) + wordBits - 1) / wordBits
	if len(words) < need {
		return nil, fmt.Errorf("bitset: need %d words for %d bits, got %d", need, n, len(words))
	}
	return &Bitset{words: words[:need], n: n}, nil
}

// Len returns the number of bits the set can hold.
func (b *Bitset) Len() uint32 { return b.n }

// Words exposes the backing words (read-only by convention) for wire encoding.
func (b *Bitset) Words() []uint64 { return b.words }

// orWord sets the mask bits of *w and reports whether any was clear before.
// go.mod pins go 1.22, which predates atomic.OrUint64/AndUint64, so the
// word-level read-modify-write is a CAS loop; it skips the write when there
// is nothing to change.
func orWord(w *uint64, mask uint64) bool {
	for {
		old := atomic.LoadUint64(w)
		if old&mask == mask {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// andNotWord clears the mask bits of *w.
func andNotWord(w *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(w)
		if old&mask == 0 || atomic.CompareAndSwapUint64(w, old, old&^mask) {
			return
		}
	}
}

// Set sets bit i. It is safe for concurrent use.
func (b *Bitset) Set(i uint32) { orWord(&b.words[i/wordBits], uint64(1)<<(i%wordBits)) }

// SetUnsync sets bit i without atomic operations. Only use when the caller
// guarantees exclusive access to the word containing i.
func (b *Bitset) SetUnsync(i uint32) {
	b.words[i/wordBits] |= uint64(1) << (i % wordBits)
}

// TestAndSet sets bit i and reports whether this call changed it from 0 to
// 1 (exactly one concurrent caller wins). Worklists use it to suppress
// duplicate scheduling.
func (b *Bitset) TestAndSet(i uint32) bool {
	return orWord(&b.words[i/wordBits], uint64(1)<<(i%wordBits))
}

// Clear clears bit i. It is safe for concurrent use.
func (b *Bitset) Clear(i uint32) { andNotWord(&b.words[i/wordBits], uint64(1)<<(i%wordBits)) }

// ClearRange clears the bits [lo, hi) with one atomic update per word, so
// concurrent Set and Clear outside the range are safe.
func (b *Bitset) ClearRange(lo, hi uint32) {
	for lo < hi {
		end := min(hi, (lo/wordBits+1)*wordBits)
		andNotWord(&b.words[lo/wordBits], ^uint64(0)>>(wordBits-(end-lo))<<(lo%wordBits))
		lo = end
	}
}

// SetMany sets every bit listed in idx. It is safe for concurrent use and
// issues one atomic word update per run of consecutive entries that share a
// word — for an ascending list, at most one per word — where a loop of Set
// would issue one per entry.
func (b *Bitset) SetMany(idx []uint32) {
	m := b.Marker()
	for _, i := range idx {
		m.Set(i)
	}
	m.Flush()
}

// Marker batches the Sets of a loop that decides bit by bit: Set accumulates
// into the current word's mask, and the atomic update happens when the loop
// moves to another word and at Flush. A Marker over a
// nil Bitset records nothing. Not safe for concurrent use; each goroutine
// takes its own.
type Marker struct {
	b    *Bitset
	wi   uint32
	mask uint64
}

// Marker returns an empty Marker over b, which may be nil.
func (b *Bitset) Marker() Marker { return Marker{b: b} }

// Set marks bit i.
func (m *Marker) Set(i uint32) {
	if wi := i / wordBits; wi != m.wi {
		m.Flush()
		m.wi = wi
	}
	m.mask |= uint64(1) << (i % wordBits)
}

// Flush publishes the pending word. Call it once after the last Set.
func (m *Marker) Flush() {
	if m.mask != 0 && m.b != nil {
		orWord(&m.b.words[m.wi], m.mask)
	}
	m.mask = 0
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i uint32) bool {
	return atomic.LoadUint64(&b.words[i/wordBits])&(uint64(1)<<(i%wordBits)) != 0
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SetAll sets every bit in [0, Len).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// trimTail zeroes the bits beyond Len in the final word so Count stays exact.
func (b *Bitset) trimTail() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << rem) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() uint32 {
	var c int
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return uint32(c)
}

// Any reports whether at least one bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Union ORs other into b. Both must have the same length.
func (b *Bitset) Union(other *Bitset) error {
	if other.n != b.n {
		return fmt.Errorf("bitset: union length mismatch %d != %d", b.n, other.n)
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
	return nil
}

// CopyFrom copies the contents of other into b. Both must have the same length.
func (b *Bitset) CopyFrom(other *Bitset) error {
	if other.n != b.n {
		return fmt.Errorf("bitset: copy length mismatch %d != %d", b.n, other.n)
	}
	copy(b.words, other.words)
	return nil
}

// Clone returns a deep copy of b.
func (b *Bitset) Clone() *Bitset {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// Pair is two bitsets of one length for a loop that reads one round's set
// while it writes the next. Next hands them out in turn, so a set it
// returned stays untouched until the call after next, and it never hands
// out the set it is given.
type Pair struct {
	sets [2]*Bitset
	last int
}

// NewPair returns a Pair of n-bit sets.
func NewPair(n uint32) *Pair { return &Pair{sets: [2]*Bitset{New(n), New(n)}} }

// Next returns the set that Next did not return last time, cleared — or
// the other one when that set is in.
func (p *Pair) Next(in *Bitset) *Bitset {
	p.last ^= 1
	if p.sets[p.last] == in {
		p.last ^= 1
	}
	b := p.sets[p.last]
	b.Reset()
	return b
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitset) ForEach(fn func(i uint32)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(uint32(wi*wordBits + tz))
			w &= w - 1
		}
	}
}

// AppendIndices appends the indices of all set bits to dst, ascending, and
// returns it: one pass over the words, so a frontier read into a reused
// slice costs a scan and no allocation.
func (b *Bitset) AppendIndices(dst []uint32) []uint32 {
	for wi, w := range b.words {
		for w != 0 {
			dst = append(dst, uint32(wi*wordBits+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// NextSet returns the index of the first set bit at or after i,
// or Len() if there is none.
func (b *Bitset) NextSet(i uint32) uint32 {
	if i >= b.n {
		return b.n
	}
	wi := int(i / wordBits)
	w := b.words[wi] >> (i % wordBits)
	if w != 0 {
		return i + uint32(bits.TrailingZeros64(w))
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return uint32(wi*wordBits + bits.TrailingZeros64(b.words[wi]))
		}
	}
	return b.n
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitset) CountRange(lo, hi uint32) uint32 {
	if hi > b.n {
		hi = b.n
	}
	var c uint32
	for i := b.NextSet(lo); i < hi; i = b.NextSet(i + 1) {
		c++
	}
	return c
}

// String renders small bitsets for debugging, e.g. "{1,5,9}/16".
func (b *Bitset) String() string {
	s := "{"
	first := true
	b.ForEach(func(i uint32) {
		if !first {
			s += ","
		}
		s += fmt.Sprint(i)
		first = false
	})
	return fmt.Sprintf("%s}/%d", s, b.n)
}
