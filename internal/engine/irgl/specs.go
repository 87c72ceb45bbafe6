package irgl

// Gluon synchronization structures over device Buffers; they satisfy the
// substrate's ReduceSpec/BroadcastSpec interfaces structurally. The
// reductions themselves live in internal/fields (the one copy of the
// paper's Figure 5 structs); this file only decorates them with what a
// device adds: every call is one message's worth of values crossing the
// simulated host/device boundary in one staged copy (§3.3 "bulk-variants
// for GPUs"), accounted once per message at len(lids) elements — Extract as
// device→host, Reduce and Set as the host→device staging buffer a GPU
// plugin scatters after receiving a message.

import (
	"gluon/internal/bitset"
	"gluon/internal/fields"
)

// bufSpec is what every spec over a device Buffer shares: the extract half.
type bufSpec[V fields.Value] struct{ b *Buffer[V] }

// Extract stages one device→host copy of the values at lids.
func (d bufSpec[V]) Extract(lids []uint32, dst []V) { d.b.BulkGather(lids, dst) }

// ReduceBuf is a reduce structure over a device buffer: host is the
// reduction over the buffer's device memory.
type ReduceBuf[V fields.Value] struct {
	bufSpec[V]
	host interface {
		Reduce(lids []uint32, vals []V, changed *bitset.Bitset)
		Reset(lids []uint32)
	}
}

// Reduce folds vals into the device elements at lids.
func (r ReduceBuf[V]) Reduce(lids []uint32, vals []V, changed *bitset.Bitset) {
	r.b.dev.bytesToDevice.Add(uint64(len(lids) * elemSize[V]()))
	r.host.Reduce(lids, vals, changed)
}

// Reset returns the device elements at lids to the reduction identity.
func (r ReduceBuf[V]) Reset(lids []uint32) { r.host.Reset(lids) }

// BroadcastBuf is the broadcast structure over a device buffer.
type BroadcastBuf[V fields.Value] struct{ bufSpec[V] }

// Set stages one host→device copy of vals into the elements at lids.
func (s BroadcastBuf[V]) Set(lids []uint32, vals []V) { s.b.BulkScatter(lids, vals) }

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
	return BroadcastBuf[V]{bufSpec[V]{b}}
}
