// Package sssp is distributed single-source shortest paths: the label
// family's relaxation operator (internal/algorithms/relax) as the paper
// states it — set l(w) to min(l(w), l(v) + weight(v,w)) — with labels
// seeded at a source. The distance field is min-reduced across proxies.
//
// The D-Galois variant performs chaotic relaxation within each host (the
// paper's §5.4: "propagates such updates in the same round within the same
// host, like chaotic relaxation in sssp").
package sssp

import (
	"gluon/internal/algorithms/relax"
	"gluon/internal/dsys"
)

// FieldID namespaces sssp's dist field in Gluon's tag space.
const FieldID = 3

// Infinity marks unreached nodes.
const Infinity = relax.Infinity

var alg = relax.Algorithm{Name: "sssp", FieldID: FieldID, FieldName: "sssp-dist", Step: relax.Weight}

// NewLigra builds the level-synchronous Bellman-Ford-style Ligra program.
func NewLigra(source uint64, workers int) dsys.ProgramFactory {
	return relax.NewLigra(alg, source, workers)
}

// NewGalois builds the asynchronous chaotic-relaxation program.
func NewGalois(source uint64, workers int) dsys.ProgramFactory {
	return relax.NewGalois(alg, source, workers)
}

// NewIrGL builds the bulk-synchronous device program.
func NewIrGL(source uint64, workers int) dsys.ProgramFactory {
	return relax.NewIrGL(alg, source, workers)
}
