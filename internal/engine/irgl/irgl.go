// Package irgl implements an IrGL-style device engine: bulk-synchronous
// data-parallel kernels over flat field arrays, the execution model of the
// paper's GPU backend. The original D-IrGL runs CUDA kernels compiled by
// the IrGL compiler on real GPUs; here the "device" is simulated (see
// DESIGN.md §2): a kernel is a data-parallel loop in which every thread
// checks its node's active bit. What Gluon needs from a device engine is
// the bulk extract/set code path, and every engine already takes it: a
// field's values cross to the host as flat arrays gathered by local ID,
// one Extract, Reduce or Set per message, with no per-node callbacks and
// no address-translation structures on the device (§4.1).
package irgl

import (
	"gluon/internal/bitset"
	"gluon/internal/graph"
	"gluon/internal/par"
)

// Device models one accelerator: its local graph in device memory and the
// threads its kernels run on.
type Device struct {
	Graph *graph.CSR
	// Workers models the device's parallelism; 0 means GOMAXPROCS.
	Workers int

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

// KernelMasked launches a kernel over the nodes set in active only
// (data-driven filtering, IrGL's worklist-free form: every thread checks
// its node's active bit). Masked launches on one device must not overlap.
func (d *Device) KernelMasked(active *bitset.Bitset, body func(u uint32)) {
	d.active, d.body = active, body
	par.Range(int(d.Graph.NumNodes()), d.Workers, d.masked)
	d.active, d.body = nil, nil
}

func (d *Device) maskedBlock(lo, hi int) {
	for u := d.active.NextSet(uint32(lo)); u < uint32(hi); u = d.active.NextSet(u + 1) {
		d.body(u)
	}
}
