package relax

// The engine schedules: how each engine applies the one operator to a
// frontier. They see a local CSR (or the engine handle over it) and a label
// array, nothing of partitions, hosts or Gluon — which is why the
// shared-memory baselines can run them on the whole graph unchanged.

import (
	"gluon/internal/bitset"
	"gluon/internal/engine/galois"
	"gluon/internal/engine/irgl"
	"gluon/internal/engine/ligra"
	"gluon/internal/fields"
	"gluon/internal/graph"
	"gluon/internal/par"
)

// Schedule runs the operator over the frontier on the labels it was built
// around and returns the set of vertices whose label went down.
type Schedule func(frontier *bitset.Bitset) *bitset.Bitset

// Ligra is the level-synchronous schedule: one direction-optimising edgeMap
// per round, pushing from a sparse frontier and pulling into every vertex
// from a dense one. transpose supplies g's in-edge CSR, which the pull
// reads; it is called for the unweighted steps only (sssp stays push-only),
// so a caller can hand in a cached transpose or build one on demand.
func Ligra(g *graph.CSR, transpose func() *graph.CSR, labels []uint32, step Step, workers int) Schedule {
	lg := &ligra.Graph{Out: g}
	if step != Weight {
		lg.In = transpose()
	}
	cfg := ligra.EdgeMapConfig{
		Workers: workers,
		Push: func(s uint32, activate func(uint32)) {
			Out(lg.Out, labels, s, step, activate)
		},
	}
	if lg.In != nil {
		cfg.Dense = func(frontier *bitset.Bitset) func(uint32) bool {
			least := leastLabel(labels, frontier, workers)
			floor := least + step.min()
			if floor < least { // an all-unreached frontier offers nothing
				floor = Infinity
			}
			return func(d uint32) bool { return in(lg.In, labels, d, step, frontier, floor) }
		}
	}
	return func(frontier *bitset.Bitset) *bitset.Bitset {
		return ligra.EdgeMap(lg, frontier, cfg)
	}
}

// leastLabel is the smallest label held by a frontier vertex.
func leastLabel(labels []uint32, frontier *bitset.Bitset, workers int) uint32 {
	least := uint32(Infinity)
	par.Range(len(labels), workers, func(lo, hi int) {
		m := uint32(Infinity)
		for u := frontier.NextSet(uint32(lo)); u < uint32(hi); u = frontier.NextSet(u + 1) {
			if l := fields.AtomicLoadU32(&labels[u]); l < m {
				m = l
			}
		}
		fields.AtomicMinU32(&least, m)
	})
	return least
}

// Galois is the asynchronous schedule: chaotic relaxation over a worklist
// until the host is quiescent, so a lowered label travels as far as local
// edges take it within one round (§5.4). A scheduled-bit set suppresses
// duplicate worklist entries: a vertex whose label keeps dropping is
// re-examined once, not once per drop (Galois' standard dedup discipline).
func Galois(g *graph.CSR, labels []uint32, step Step, workers int) Schedule {
	e := galois.New(g, workers)
	return func(frontier *bitset.Bitset) *bitset.Bitset {
		updated := bitset.New(frontier.Len())
		inWL := frontier.Clone()
		e.DoAllFrontier(frontier, func(e *galois.Engine, u uint32, push func(uint32)) {
			inWL.Clear(u)
			Out(e.Graph, labels, u, step, func(d uint32) {
				updated.Set(d)
				if inWL.TestAndSet(d) {
					push(d)
				}
			})
		})
		return updated
	}
}

// IrGL is the bulk-synchronous device schedule: one data-driven kernel per
// round, every thread checking its vertex's active bit. labels is the
// device buffer's array.
func IrGL(dev *irgl.Device, labels []uint32, step Step) Schedule {
	return func(frontier *bitset.Bitset) *bitset.Bitset {
		updated := bitset.New(frontier.Len())
		mark := updated.Set
		dev.KernelMasked(frontier, func(u uint32) {
			Out(dev.Graph, labels, u, step, mark)
		})
		return updated
	}
}
