// Package fields provides the label-array primitives shared by the vertex
// programs: atomic update helpers for engine-side operators and the Gluon
// reduce/broadcast synchronization structures over label slices — the
// Figure 5 structs of the paper. The generics are those structs — the
// boilerplate the paper's compiler emits per field — in their one copy:
// Min, Sum and Set are generic over the element type and the device engine
// decorates them (irgl.MinBuf and friends) without restating a reduction.
package fields

import (
	"math"
	"sync/atomic"

	"gluon/internal/bitset"
)

// InfinityU32 is the "unreached" label for distance-style fields.
const InfinityU32 = math.MaxUint32

// AtomicMinU32 lowers *p to v if v is smaller, returning whether it changed.
func AtomicMinU32(p *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// AtomicLoadU32 reads *p atomically.
func AtomicLoadU32(p *uint32) uint32 { return atomic.LoadUint32(p) }

// AtomicStoreU32 writes *p atomically. Single-writer loops use it so that
// concurrent readers in the same parallel pass see a well-defined value.
func AtomicStoreU32(p *uint32, v uint32) { atomic.StoreUint32(p, v) }

// AtomicAddU64 adds v to *p and returns the new value.
func AtomicAddU64(p *uint64, v uint64) uint64 { return atomic.AddUint64(p, v) }

// AtomicAddF64Bits adds v to the float64 stored as IEEE-754 bits in *p
// (CAS loop). Push-style operators use bit-typed float fields so that
// concurrent accumulation needs no locks.
func AtomicAddF64Bits(p *uint64, v float64) {
	for {
		old := atomic.LoadUint64(p)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(p, old, next) {
			return
		}
	}
}

// LoadF64Bits reads the float64 stored as bits in *p.
func LoadF64Bits(p *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(p))
}

// The structures below are slice-shaped, as the substrate's spec contract is
// (gluon.ReduceSpec / gluon.BroadcastSpec): each call covers one whole
// message — lids[i] is the proxy vals[i] belongs to — so a field costs one
// dynamic call per message and a typed loop per value. Reduce marks the
// proxies whose value it changed in changed (nil: nobody is tracking)
// through a bitset.Marker, one atomic word update per run of lids sharing a
// 64-bit word.

// SumF64Bits is a Gluon reduce structure over a bit-typed float64 slice
// (bc's path counts and dependencies): add-combined, reset to 0.
type SumF64Bits struct{ Bits []uint64 }

// Extract reads the values at lids into dst.
func (a SumF64Bits) Extract(lids []uint32, dst []float64) { extractF64Bits(a.Bits, lids, dst) }

// Reduce adds vals into the values at lids; adding 0 is not a change.
func (a SumF64Bits) Reduce(lids []uint32, vals []float64, changed *bitset.Bitset) {
	mark := changed.Marker()
	for i, lid := range lids {
		if v := vals[i]; v != 0 {
			AtomicAddF64Bits(&a.Bits[lid], v)
			mark.Set(lid)
		}
	}
	mark.Flush()
}

// Reset zeroes the values at lids.
func (a SumF64Bits) Reset(lids []uint32) {
	for _, lid := range lids {
		atomic.StoreUint64(&a.Bits[lid], 0)
	}
}

// SetF64Bits is the broadcast structure over a bit-typed float64 slice.
type SetF64Bits struct{ Bits []uint64 }

// Extract reads the values at lids into dst.
func (s SetF64Bits) Extract(lids []uint32, dst []float64) { extractF64Bits(s.Bits, lids, dst) }

// Set overwrites the values at lids.
func (s SetF64Bits) Set(lids []uint32, vals []float64) {
	for i, lid := range lids {
		atomic.StoreUint64(&s.Bits[lid], math.Float64bits(vals[i]))
	}
}

func extractF64Bits(bits []uint64, lids []uint32, dst []float64) {
	for i, lid := range lids {
		dst[i] = LoadF64Bits(&bits[lid])
	}
}

// Value is the set of element types a synchronized label slice can hold;
// it mirrors gluon.Value, which this package cannot import (the substrate's
// tests use these structures).
type Value interface {
	uint32 | uint64 | float64
}

// Min is the Gluon reduce structure for a min-combined label slice (bfs
// levels, sssp distances, cc component labels). Reset keeps the label: for
// an idempotent min reduction, a mirror's current label is already
// incorporated at the master, so re-sending it is a no-op — exactly the
// paper's sssp example where "keeping labels of mirror nodes unchanged is
// sufficient".
type Min[V Value] []V

// Extract reads the labels at lids into dst.
func (m Min[V]) Extract(lids []uint32, dst []V) { extract(m, lids, dst) }

// Reduce lowers each label at lids to its value in vals if that is smaller.
func (m Min[V]) Reduce(lids []uint32, vals []V, changed *bitset.Bitset) {
	mark := changed.Marker()
	for i, lid := range lids {
		if v := vals[i]; v < m[lid] {
			m[lid] = v
			mark.Set(lid)
		}
	}
	mark.Flush()
}

// Reset is a no-op (min is idempotent).
func (m Min[V]) Reset([]uint32) {}

// Sum is the Gluon reduce structure for an additively-combined slice
// (pagerank contributions, degree accumulation). Reset returns mirrors to
// the additive identity 0, the paper's push-style pagerank example.
type Sum[V Value] []V

// Extract reads the partial values at lids into dst.
func (a Sum[V]) Extract(lids []uint32, dst []V) { extract(a, lids, dst) }

// Reduce adds vals into the values at lids; adding the identity is not a
// change.
func (a Sum[V]) Reduce(lids []uint32, vals []V, changed *bitset.Bitset) {
	mark := changed.Marker()
	for i, lid := range lids {
		if v := vals[i]; v != 0 {
			a[lid] += v
			mark.Set(lid)
		}
	}
	mark.Flush()
}

// Reset zeroes the values at lids (the + identity).
func (a Sum[V]) Reset(lids []uint32) {
	for _, lid := range lids {
		a[lid] = 0
	}
}

// Set is the Gluon broadcast structure for a label slice, whatever its
// reduction.
type Set[V Value] []V

// Extract reads the values at lids into dst.
func (s Set[V]) Extract(lids []uint32, dst []V) { extract(s, lids, dst) }

// Set overwrites the values at lids.
func (s Set[V]) Set(lids []uint32, vals []V) {
	for i, lid := range lids {
		s[lid] = vals[i]
	}
}

// extract is the gather all three slice structures share: dst[i] = s[lids[i]].
func extract[V Value](s []V, lids []uint32, dst []V) {
	for i, lid := range lids {
		dst[i] = s[lid]
	}
}
