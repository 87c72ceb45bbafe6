package irgl

// Gluon synchronization structures over device Buffers; they satisfy the
// substrate's ReduceSpec/BroadcastSpec/BulkExtractor interfaces
// structurally. The reductions themselves live in internal/fields (the one
// copy of the paper's Figure 5 structs); this file only decorates them with
// what a device adds: the bulk extract variant (§3.3 "bulk-variants for
// GPUs"), so a whole memoized order crosses the simulated device boundary
// in one accounted staging copy instead of per-node callbacks, and
// per-element host→device accounting for the scatter side (Reduce, Set),
// modeling the staging buffer a GPU plugin scatters after receiving a
// message.

import "gluon/internal/fields"

// bufSpec is what every spec over a device Buffer shares: the extract half
// and the scatter-side accounting.
type bufSpec[V fields.Value] struct{ b *Buffer[V] }

// Extract reads one element (accounted single-element transfer).
func (d bufSpec[V]) Extract(lid uint32) V { return d.b.Get(lid) }

// ExtractBulk stages one device→host copy of the given order.
func (d bufSpec[V]) ExtractBulk(lids []uint32, dst []V) []V { return d.b.BulkGather(lids, dst) }

// scattered accounts one element crossing to the device.
func (d bufSpec[V]) scattered() { d.b.dev.bytesToDevice.Add(uint64(elemSize[V]())) }

// ReduceBuf is a reduce structure over a device buffer: host is the
// reduction over the buffer's device memory.
type ReduceBuf[V fields.Value] struct {
	bufSpec[V]
	host interface {
		Reduce(lid uint32, v V) bool
		Reset(lid uint32)
	}
}

// Reduce folds v into the device element.
func (r ReduceBuf[V]) Reduce(lid uint32, v V) bool {
	r.scattered()
	return r.host.Reduce(lid, v)
}

// Reset returns the device element to the reduction identity.
func (r ReduceBuf[V]) Reset(lid uint32) { r.host.Reset(lid) }

// BroadcastBuf is the broadcast structure over a device buffer.
type BroadcastBuf[V fields.Value] struct {
	bufSpec[V]
	host fields.Set[V]
}

// Set overwrites the device element, reporting change.
func (s BroadcastBuf[V]) Set(lid uint32, v V) bool {
	s.scattered()
	return s.host.Set(lid, v)
}

// MinBuf is the min-reduce structure over b (bfs levels, sssp distances,
// cc labels).
func MinBuf[V fields.Value](b *Buffer[V]) ReduceBuf[V] {
	return ReduceBuf[V]{bufSpec[V]{b}, fields.Min[V](b.data)}
}

// SumBuf is the add-reduce structure over b (pagerank contributions).
func SumBuf[V fields.Value](b *Buffer[V]) ReduceBuf[V] {
	return ReduceBuf[V]{bufSpec[V]{b}, fields.Sum[V](b.data)}
}

// SetBuf is the broadcast structure over b.
func SetBuf[V fields.Value](b *Buffer[V]) BroadcastBuf[V] {
	return BroadcastBuf[V]{bufSpec[V]{b}, fields.Set[V](b.data)}
}
