// Package relax is the label family's one vertex program. bfs, sssp and cc
// are the paper's running example (§2) — "set l(w) to min(l(w), l(v) +
// weight(v,w))" — with the edge weight taken as 1, as given, or as 0, and
// with labels seeded from a source or from global IDs. What varies between
// D-Ligra, D-Galois and D-IrGL is not that operator but the schedule an
// engine applies it on, which is Gluon's pitch: the engine is swappable
// around the operator. The package is cut the same way:
//
//   - relax.go: the operator, once — Out along a vertex's out-edges, in for
//     Ligra's pull traversal — and the two ways labels start;
//   - schedule.go: one schedule per engine over a local CSR, a label array
//     and a frontier, knowing nothing of hosts;
//   - program.go: the dsys.Program that couples a schedule to one Gluon
//     min-field.
//
// The bfs, sssp and cc packages are this package's constants. The
// shared-memory baselines of Table 4 (internal/bench) run the same
// schedules on the unpartitioned CSR, and the Gemini baseline
// (internal/gemini) calls Out from its own loop: it shares the operator,
// not the schedules and not the wire.
package relax

import (
	"gluon/internal/bitset"
	"gluon/internal/fields"
	"gluon/internal/graph"
)

// Infinity is the label of a vertex nothing has reached.
const Infinity = fields.InfinityU32

// Step is what a label gains crossing an edge; it is the only thing that
// tells the family's operators apart, and a constant of the algorithm.
type Step uint8

const (
	Hop    Step = iota // bfs: l+1
	Weight             // sssp: l+w, saturating at Infinity-1
	Same               // cc: l
)

// min is the least a label can gain across one edge: exactly what the two
// unweighted steps add, and a lower bound for Weight (zero-weight edges
// are legal input).
func (s Step) min() uint32 {
	if s == Hop {
		return 1
	}
	return 0
}

// Out applies the operator along u's out-edges: every neighbour d is lowered
// to l(u) stepped across the edge, and lowered(d) is called for each one
// that actually went down. An unreached u offers nothing — a broadcast can
// deliver, and so activate, a mirror that is still at Infinity, and
// Infinity+1 would wrap. The step is resolved once per vertex, so the edge
// loops carry no call but the one on success. Safe for concurrent use
// across vertices.
func Out(g *graph.CSR, labels []uint32, u uint32, step Step, lowered func(d uint32)) {
	lu := fields.AtomicLoadU32(&labels[u])
	if lu == Infinity {
		return
	}
	nbrs := g.Neighbors(u)
	if step == Weight {
		ws := g.EdgeWeights(u)
		for i, d := range nbrs {
			nl := lu + ws[i]
			if nl < lu { // a path longer than uint32 holds is still a path
				nl = Infinity - 1
			}
			if fields.AtomicMinU32(&labels[d], nl) {
				lowered(d)
			}
		}
		return
	}
	nl := lu + step.min()
	for _, d := range nbrs {
		if fields.AtomicMinU32(&labels[d], nl) {
			lowered(d)
		}
	}
}

// in is the operator in pull form for the unweighted steps, Ligra's dense
// traversal: d takes the best offer among its in-neighbours that are in the
// frontier, and the result says whether it went down. Only the calling
// goroutine writes labels[d], but d may be another worker's in-neighbour in
// the same pass, hence the atomic store; labels only ever decrease, so
// whichever value a concurrent reader catches is a valid label.
//
// floor is a lower bound on every offer the pass can make — the least label
// in the frontier, stepped once. A d at or below it is skipped and a scan
// stops once d gets there. Level-synchronous bfs usually phrases this exit
// as "d is still unreached"; that is the same predicate only if every host
// runs in lockstep. Next to an asynchronous peer a reached d can hold an
// over-estimate that a later, smaller broadcast must still lower, and the
// frontier bound stays true there.
func in(g *graph.CSR, labels []uint32, d uint32, step Step, frontier *bitset.Bitset, floor uint32) bool {
	ld := labels[d]
	if ld <= floor {
		return false
	}
	lowered, gain := false, step.min()
	for _, s := range g.Neighbors(d) {
		if !frontier.Test(s) {
			continue
		}
		ls := fields.AtomicLoadU32(&labels[s])
		if ls == Infinity {
			continue
		}
		if nl := ls + gain; nl < ld {
			ld, lowered = nl, true
			fields.AtomicStoreU32(&labels[d], nl)
			if ld <= floor {
				break
			}
		}
	}
	return lowered
}

// SeedSource starts a single-source run: every label is Infinity except the
// source's, which is 0 and alone in the returned frontier. local is false on
// a host that holds no proxy of the source; every host that does seeds it
// itself, so no initial communication round is needed.
func SeedSource(labels []uint32, source uint32, local bool) *bitset.Bitset {
	for i := range labels {
		labels[i] = Infinity
	}
	frontier := bitset.New(uint32(len(labels)))
	if local {
		labels[source] = 0
		frontier.SetUnsync(source)
	}
	return frontier
}

// SeedIDs starts a label-propagation run: every vertex carries its own
// global ID — consistent across hosts with no communication — and all of
// them are active.
func SeedIDs(labels []uint32, id func(lid uint32) uint64) *bitset.Bitset {
	for lid := range labels {
		labels[lid] = uint32(id(uint32(lid)))
	}
	frontier := bitset.New(uint32(len(labels)))
	frontier.SetAll()
	return frontier
}
