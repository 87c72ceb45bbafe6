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
)

// Schedule runs the operator over the frontier on the labels it was built
// around and returns the set of vertices whose label went down. The set is
// one of two the schedule owns and alternates between (bitset.Pair): it
// stays valid until the call after next, and a call never writes the
// frontier it is handed.
type Schedule func(frontier *bitset.Bitset) *bitset.Bitset

// Ligra is the level-synchronous schedule: one direction-optimising edgeMap
// per round, pushing from a sparse frontier and pulling into every vertex
// from a dense one. transpose supplies g's in-edge CSR, which the pull
// reads; it is called for the unweighted steps only (sssp stays push-only),
// so a caller can hand in a cached transpose or build one on demand.
func Ligra(g *graph.CSR, transpose func() *graph.CSR, labels []uint32, step Step, workers int) Schedule {
	lg := &ligra.Graph{Out: g}
	cfg := ligra.EdgeMapConfig{
		Workers: workers,
		Push: func(s uint32, activate func(uint32)) {
			Out(g, labels, s, step, activate)
		},
	}
	if step != Weight {
		lg.In = transpose()
		// The pass's frontier and floor, read by a pull built once.
		var frontier *bitset.Bitset
		var floor uint32
		pull := func(d uint32) bool { return in(lg.In, labels, d, step, frontier, floor) }
		cfg.Dense = func(f *bitset.Bitset, ids []uint32) func(uint32) bool {
			least := uint32(Infinity)
			for _, u := range ids {
				least = min(least, fields.AtomicLoadU32(&labels[u]))
			}
			frontier, floor = f, least+step.min()
			if floor < least { // an all-unreached frontier offers nothing
				floor = Infinity
			}
			return pull
		}
	}
	em, next := ligra.NewEdgeMapper(lg, cfg), bitset.NewPair(g.NumNodes())
	return func(frontier *bitset.Bitset) *bitset.Bitset {
		out := next.Next(frontier)
		em.EdgeMap(frontier, out)
		return out
	}
}

// Galois is the asynchronous schedule: chaotic relaxation over a worklist
// until the host is quiescent, so a lowered label travels as far as local
// edges take it within one round (§5.4). A scheduled-bit set suppresses
// duplicate worklist entries: a vertex whose label keeps dropping is
// re-examined once, not once per drop (Galois' standard dedup discipline).
// The set is empty between rounds — a vertex enters it when scheduled and
// leaves it when popped, and a round ends with the worklist drained — so a
// round seeds it from the frontier's list and never clears it.
func Galois(g *graph.CSR, labels []uint32, step Step, workers int) Schedule {
	e := galois.New(g, workers)
	next, inWL := bitset.NewPair(g.NumNodes()), bitset.New(g.NumNodes())
	var seeds []uint32
	var updated *bitset.Bitset
	op := func(e *galois.Engine, u uint32, push func(uint32)) {
		inWL.Clear(u)
		Out(e.Graph, labels, u, step, func(d uint32) {
			updated.Set(d)
			if inWL.TestAndSet(d) {
				push(d)
			}
		})
	}
	return func(frontier *bitset.Bitset) *bitset.Bitset {
		updated = next.Next(frontier)
		seeds = frontier.AppendIndices(seeds[:0])
		inWL.SetMany(seeds)
		e.DoAll(seeds, op)
		return updated
	}
}

// IrGL is the bulk-synchronous device schedule: one data-driven kernel per
// round, every thread checking its vertex's active bit. labels is the
// device buffer's array.
func IrGL(dev *irgl.Device, labels []uint32, step Step) Schedule {
	next := bitset.NewPair(dev.Graph.NumNodes())
	var updated *bitset.Bitset
	mark := func(d uint32) { updated.Set(d) }
	body := func(u uint32) { Out(dev.Graph, labels, u, step, mark) }
	return func(frontier *bitset.Bitset) *bitset.Bitset {
		updated = next.Next(frontier)
		dev.KernelMasked(frontier, body)
		return updated
	}
}
