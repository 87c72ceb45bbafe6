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

// EdgeMapConfig configures an EdgeMapper. Both traversals hand the
// operator a whole vertex: the operator walks that vertex's edges itself,
// so the per-edge work is a loop the compiler sees rather than an indirect
// call per edge, and a smarter advance (edge-balanced, say) has one loop to
// replace.
type EdgeMapConfig struct {
	// Push is invoked in sparse (push) mode for each frontier vertex s. It
	// applies the operator along s's out-edges and calls activate(d) for
	// every destination that became active for the next frontier. It must
	// be thread-safe across destinations (use CAS on the destination
	// field).
	Push func(s uint32, activate func(d uint32))
	// Dense enables direction optimization when the graph has a transpose.
	// It is called once per dense pass with that pass's frontier and its
	// vertices in ascending order — the place for whatever the pass
	// precomputes, such as an early-exit bound — and returns the pull
	// applied to every vertex d: scan d's in-edges whose source is in the
	// frontier and report whether d became active. Only one goroutine
	// touches a given d. Nil means always push.
	Dense func(frontier *bitset.Bitset, ids []uint32) (pull func(d uint32) bool)
	// DenseThreshold is the fraction of |E| above which the frontier's
	// outgoing edge count triggers dense mode. 0 means Ligra's 1/20.
	DenseThreshold float64
	// Workers sizes the parallel loops; 0 means GOMAXPROCS.
	Workers int
}

// EdgeMapper applies one configuration's edgeMap round after round. Each
// call reads the frontier's words once, into a vertex list it keeps for
// the next call, and that list serves the push/pull decision, the push
// loop and the empty check; so a sparse round costs what its frontier
// costs, and a round allocates nothing once the list has grown. One
// EdgeMap at a time.
type EdgeMapper struct {
	g   *Graph
	cfg EdgeMapConfig

	ids  []uint32       // the frontier's vertices, ascending
	next *bitset.Bitset // the destination of the call in progress
	pull func(d uint32) bool

	// Built once, so that a round hands par.Range no fresh closure.
	activate             func(d uint32)
	pushChunk, pullChunk func(lo, hi int)
}

// NewEdgeMapper returns an EdgeMapper of cfg over g.
func NewEdgeMapper(g *Graph, cfg EdgeMapConfig) *EdgeMapper {
	m := &EdgeMapper{g: g, cfg: cfg}
	m.activate = func(d uint32) { m.next.Set(d) }
	m.pushChunk = func(lo, hi int) {
		for _, s := range m.ids[lo:hi] {
			m.cfg.Push(s, m.activate)
		}
	}
	m.pullChunk = func(lo, hi int) {
		mark := m.next.Marker()
		for d := uint32(lo); d < uint32(hi); d++ {
			if m.pull(d) {
				mark.Set(d)
			}
		}
		mark.Flush()
	}
	return m
}

// EdgeMap applies the operator over frontier and sets in next, which must
// come in empty, every vertex that became active. It implements Ligra's
// direction optimization when cfg.Dense is available. It only reads
// frontier.
func (m *EdgeMapper) EdgeMap(frontier, next *bitset.Bitset) {
	m.ids = frontier.AppendIndices(m.ids[:0])
	if len(m.ids) == 0 {
		return
	}
	m.next = next
	if m.dense() {
		m.pull = m.cfg.Dense(frontier, m.ids)
		par.Range(int(m.g.Out.NumNodes()), m.cfg.Workers, m.pullChunk)
	} else {
		par.Range(len(m.ids), m.cfg.Workers, m.pushChunk)
	}
}

// dense reports whether the frontier's out-edges exceed the threshold
// fraction of |E|, Ligra's switch from push to pull.
func (m *EdgeMapper) dense() bool {
	if m.cfg.Dense == nil || m.g.In == nil {
		return false
	}
	threshold := m.cfg.DenseThreshold
	if threshold == 0 {
		threshold = 1.0 / 20.0
	}
	limit := threshold * float64(m.g.Out.NumEdges())
	var sum uint64
	for _, u := range m.ids {
		if sum += uint64(m.g.Out.OutDegree(u)); float64(sum) > limit {
			return true
		}
	}
	return false
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
