// Package ligra implements a Ligra-style shared-memory engine: computation
// proceeds over a frontier of active vertices through edgeMap/vertexMap,
// with Ligra's signature direction optimization — sparse frontiers push
// along out-edges, dense frontiers pull along in-edges (Shun & Blelloch,
// PPoPP'13). Interfaced with Gluon this becomes D-Ligra.
//
// The engine is oblivious to distribution: it runs on whatever local CSR it
// is given (invariant (b) of the paper — all local edges connect local
// proxies), exactly how Gluon reuses shared-memory systems out of the box.
package ligra

import (
	"gluon/internal/bitset"
	"gluon/internal/graph"
	"gluon/internal/par"
)

// Graph bundles the out-CSR with its transpose for pull traversals.
type Graph struct {
	Out *graph.CSR
	In  *graph.CSR // required for pull mode; may be nil to disable pulling
}

// EdgeMapConfig configures one edgeMap application. Both traversals hand
// the operator a whole vertex: the operator walks that vertex's edges
// itself, so the per-edge work is a loop the compiler sees rather than an
// indirect call per edge, and a smarter advance (edge-balanced, say) has one
// loop to replace.
type EdgeMapConfig struct {
	// Push is invoked in sparse (push) mode for each frontier vertex s. It
	// applies the operator along s's out-edges and calls activate(d) for
	// every destination that became active for the next frontier. It must
	// be thread-safe across destinations (use CAS on the destination
	// field).
	Push func(s uint32, activate func(d uint32))
	// Dense enables direction optimization when the graph has a transpose.
	// It is called once per dense pass with that pass's frontier — the
	// place for whatever the pass precomputes, such as an early-exit bound
	// — and returns the pull applied to every vertex d: scan d's in-edges
	// whose source is in the frontier and report whether d became active.
	// Only one goroutine touches a given d. Nil means always push.
	Dense func(frontier *bitset.Bitset) (pull func(d uint32) bool)
	// DenseThreshold is the fraction of |E| above which the frontier's
	// outgoing edge count triggers dense mode. 0 means Ligra's 1/20.
	DenseThreshold float64
	// Workers sizes the parallel loops; 0 means GOMAXPROCS.
	Workers int
}

// EdgeMap applies cfg over the frontier and returns the next frontier.
// It implements Ligra's direction optimization when cfg.Dense is available.
func EdgeMap(g *Graph, frontier *bitset.Bitset, cfg EdgeMapConfig) *bitset.Bitset {
	n := g.Out.NumNodes()
	next := bitset.New(n)
	if frontier == nil || !frontier.Any() {
		return next
	}
	if cfg.Dense != nil && g.In != nil {
		threshold := cfg.DenseThreshold
		if threshold == 0 {
			threshold = 1.0 / 20.0
		}
		if float64(frontierEdges(g, frontier, cfg.Workers)) > threshold*float64(g.Out.NumEdges()) {
			pull := cfg.Dense(frontier)
			par.Range(int(n), cfg.Workers, func(lo, hi int) {
				for d := uint32(lo); d < uint32(hi); d++ {
					if pull(d) {
						next.Set(d)
					}
				}
			})
			return next
		}
	}
	activate := next.Set
	VertexMap(frontier, cfg.Workers, func(s uint32) { cfg.Push(s, activate) })
	return next
}

// frontierEdges counts out-edges incident to the frontier, the quantity
// Ligra compares against |E|/20.
func frontierEdges(g *Graph, frontier *bitset.Bitset, workers int) uint64 {
	n := int(g.Out.NumNodes())
	return par.SumUint64(n, workers, func(lo, hi int) uint64 {
		var sum uint64
		for u := frontier.NextSet(uint32(lo)); u < uint32(hi); u = frontier.NextSet(u + 1) {
			sum += uint64(g.Out.OutDegree(u))
		}
		return sum
	})
}

// VertexMap applies fn to every vertex in the frontier in parallel.
func VertexMap(frontier *bitset.Bitset, workers int, fn func(u uint32)) {
	n := int(frontier.Len())
	par.Range(n, workers, func(lo, hi int) {
		for u := frontier.NextSet(uint32(lo)); u < uint32(hi); u = frontier.NextSet(u + 1) {
			fn(u)
		}
	})
}
