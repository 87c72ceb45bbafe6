// Package bfs is distributed breadth-first search: the label family's
// relaxation operator (internal/algorithms/relax) with every edge one hop
// long, labels seeded at a source. The node field is the BFS level,
// min-reduced across proxies.
package bfs

import (
	"gluon/internal/algorithms/relax"
	"gluon/internal/dsys"
)

// FieldID namespaces bfs's dist field in Gluon's tag space.
const FieldID = 1

// Infinity marks unreached nodes.
const Infinity = relax.Infinity

var alg = relax.Algorithm{Name: "bfs", FieldID: FieldID, FieldName: "bfs-dist", Step: relax.Hop}

// NewLigra builds the level-synchronous, direction-optimizing Ligra program.
func NewLigra(source uint64, workers int) dsys.ProgramFactory {
	return relax.NewLigra(alg, source, workers)
}

// NewGalois builds the asynchronous worklist program: level updates
// propagate transitively within the host in a single round.
func NewGalois(source uint64, workers int) dsys.ProgramFactory {
	return relax.NewGalois(alg, source, workers)
}

// NewIrGL builds the bulk-synchronous device program; the dist field lives
// in a device buffer.
func NewIrGL(source uint64, workers int) dsys.ProgramFactory {
	return relax.NewIrGL(alg, source, workers)
}
