// Package irgl implements an IrGL-style device engine: bulk-synchronous
// data-parallel kernels over flat field buffers, the execution model of the
// paper's GPU backend. The original D-IrGL runs CUDA kernels compiled by
// the IrGL compiler on real GPUs; here the "device" is simulated (see
// DESIGN.md §2): kernels are data-parallel loops over device-resident
// buffers, and every byte moved across the host/device boundary is counted,
// because what Gluon needs from a device engine — and what this engine
// reproduces — is the bulk extract/set code path: field values cross to the
// host as flat arrays gathered by local ID, with no per-node callbacks and
// no address-translation structures on the device (§4.1).
package irgl

import (
	"sync/atomic"

	"gluon/internal/bitset"
	"gluon/internal/graph"
	"gluon/internal/par"
)

// Device models one accelerator: its local graph in device memory and
// transfer accounting for the host/device boundary.
type Device struct {
	Graph *graph.CSR
	// Workers models the device's parallelism; 0 means GOMAXPROCS.
	Workers int

	bytesToDevice  atomic.Uint64
	bytesFromDev   atomic.Uint64
	kernelLaunches atomic.Uint64

	// The masked kernel in flight, and its block body built once, so a
	// launch hands par.Range no fresh closure.
	active *bitset.Bitset
	body   func(u uint32)
	masked func(lo, hi int)
}

// New creates a device holding the local graph.
func New(g *graph.CSR, workers int) *Device {
	d := &Device{Graph: g, Workers: workers}
	d.masked = d.maskedBlock
	return d
}

// TransferStats reports simulated PCIe traffic and kernel launches.
type TransferStats struct {
	BytesToDevice   uint64
	BytesFromDevice uint64
	KernelLaunches  uint64
}

// Stats returns a snapshot of the transfer counters.
func (d *Device) Stats() TransferStats {
	return TransferStats{
		BytesToDevice:   d.bytesToDevice.Load(),
		BytesFromDevice: d.bytesFromDev.Load(),
		KernelLaunches:  d.kernelLaunches.Load(),
	}
}

// KernelBlocks launches the same topology-driven kernel with its threads
// grouped into blocks of consecutive nodes: body runs once per block, so
// state a block shares (a ballot word of per-node flags, a partial sum) is
// published once per block instead of once per thread.
func (d *Device) KernelBlocks(body func(lo, hi int)) {
	d.kernelLaunches.Add(1)
	par.Range(int(d.Graph.NumNodes()), d.Workers, body)
}

// KernelMasked launches a kernel over the nodes set in active only
// (data-driven filtering, IrGL's worklist-free form: every thread checks
// its node's active bit). Masked launches on one device must not overlap.
func (d *Device) KernelMasked(active *bitset.Bitset, body func(u uint32)) {
	d.kernelLaunches.Add(1)
	d.active, d.body = active, body
	par.Range(int(d.Graph.NumNodes()), d.Workers, d.masked)
	d.active, d.body = nil, nil
}

func (d *Device) maskedBlock(lo, hi int) {
	for u := d.active.NextSet(uint32(lo)); u < uint32(hi); u = d.active.NextSet(u + 1) {
		d.body(u)
	}
}

// Buffer is a device-resident field buffer of a fixed-width element type.
// Algorithms allocate their node fields as Buffers; Gluon's sync specs go
// through the bulk gather/scatter methods below, which model the staging
// copies a real GPU plugin performs.
type Buffer[V any] struct {
	dev  *Device
	data []V
}

// NewBuffer allocates a device buffer of n elements.
func NewBuffer[V any](d *Device, n uint32) *Buffer[V] {
	return &Buffer[V]{dev: d, data: make([]V, n)}
}

// Data exposes the device array to kernels. Host code must use the bulk
// methods instead so transfers are accounted.
func (b *Buffer[V]) Data() []V { return b.data }

// Len returns the element count.
func (b *Buffer[V]) Len() int { return len(b.data) }

// BulkGather copies the elements at the given local IDs into dst (which
// must have len(lids) capacity), modeling a device→host staging copy of a
// memoized sync order. Returns dst.
func (b *Buffer[V]) BulkGather(lids []uint32, dst []V) []V {
	dst = dst[:len(lids)]
	for i, lid := range lids {
		dst[i] = b.data[lid]
	}
	b.dev.bytesFromDev.Add(uint64(len(lids)) * uint64(elemSize[V]()))
	return dst
}

// BulkScatter copies src into the elements at the given local IDs,
// modeling a host→device staging copy.
func (b *Buffer[V]) BulkScatter(lids []uint32, src []V) {
	for i, lid := range lids {
		b.data[lid] = src[i]
	}
	b.dev.bytesToDevice.Add(uint64(len(lids)) * uint64(elemSize[V]()))
}

func elemSize[V any]() int {
	var v V
	switch any(v).(type) {
	case uint32, int32, float32:
		return 4
	case uint64, int64, float64:
		return 8
	default:
		return 8
	}
}
