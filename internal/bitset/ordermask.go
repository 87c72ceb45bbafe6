package bitset

import (
	"math/bits"
	"sync/atomic"
)

// OrderMask is a word-level view of a memoized exchange order: the members
// of a strictly ascending lid list, stored as sparse (word index, member
// mask) pairs with a per-word running rank. It turns the sync hot path's
// per-lid "is this proxy in the updated set?" probes into one AND per
// 64-bit word.
//
// The rank bookkeeping relies on the order being strictly ascending, so a
// member's position in the order list equals its rank among all members —
// rank[k] (members in earlier words) plus a popcount of the lower member
// bits in its own word. NewOrderMask refuses (returns nil) any other input;
// callers fall back to the per-lid scan.
type OrderMask struct {
	wordIdx []uint32 // words of the bit space holding at least one member
	words   []uint64 // member bits within that word
	rank    []uint32 // members in earlier words
	n       uint32   // total members, == len(order)
}

// NewOrderMask builds the mask for a strictly ascending order list.
// It returns nil if the list is not strictly ascending.
func NewOrderMask(order []uint32) *OrderMask {
	m := &OrderMask{n: uint32(len(order))}
	lastWI := ^uint32(0)
	var count uint32
	for i, lid := range order {
		if i > 0 && lid <= order[i-1] {
			return nil
		}
		wi := lid / wordBits
		if wi != lastWI {
			m.wordIdx = append(m.wordIdx, wi)
			m.words = append(m.words, 0)
			m.rank = append(m.rank, count)
			lastWI = wi
		}
		m.words[len(m.words)-1] |= uint64(1) << (lid % wordBits)
		count++
	}
	return m
}

// Len returns the number of members (the length of the original order list).
func (m *OrderMask) Len() uint32 { return m.n }

// IntersectAppend appends, for every member of the order present in
// updated, its position in the order list to positions and its lid to
// members, both in ascending order, and returns the extended slices. It is
// the word-at-a-time equivalent of
//
//	for pos, lid := range order {
//	    if updated.Test(lid) { positions = append(positions, pos); ... }
//	}
//
// updated must span every member lid. Words are read with atomic loads, so
// concurrent Set/Clear on bits outside the order's members (e.g. a receive
// loop marking masters while mirrors encode) cannot race; concurrent
// mutation of member bits yields the same torn-read semantics as the
// per-lid scan.
func (m *OrderMask) IntersectAppend(updated *Bitset, positions, members []uint32) ([]uint32, []uint32) {
	uw := updated.Words()
	for k, wi := range m.wordIdx {
		mask := m.words[k]
		w := atomic.LoadUint64(&uw[wi]) & mask
		if w == 0 {
			continue
		}
		base := wi * wordBits
		r := m.rank[k]
		for w != 0 {
			tz := uint(bits.TrailingZeros64(w))
			positions = append(positions, r+uint32(bits.OnesCount64(mask&(uint64(1)<<tz-1))))
			members = append(members, base+uint32(tz))
			w &= w - 1
		}
	}
	return positions, members
}

// CountIn returns how many members of the order are set in updated, with the
// same atomic word reads as IntersectAppend.
func (m *OrderMask) CountIn(updated *Bitset) int {
	c := 0
	for k, wi := range m.wordIdx {
		c += bits.OnesCount64(atomic.LoadUint64(&updated.words[wi]) & m.words[k])
	}
	return c
}

// ClearIn clears every member of the order in b, with one atomic update per
// word that holds a set member; b must span every member. It is what a loop
// of b.Clear over the order would leave, at a 64th of the atomics.
func (m *OrderMask) ClearIn(b *Bitset) {
	for k, wi := range m.wordIdx {
		andNotWord(&b.words[wi], m.words[k])
	}
}
