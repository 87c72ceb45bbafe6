// Package cc is distributed connected components by label propagation: the
// label family's relaxation operator (internal/algorithms/relax) with
// labels crossing edges unchanged. Every node starts with its own global ID
// as its component label and repeatedly adopts the minimum label of its
// neighbors.
//
// Label propagation assumes an undirected (symmetrized) input, which is how
// the experiment harness prepares cc workloads; the paper likewise uses
// label propagation in D-Galois ("better for low-diameter graphs", §5.4).
package cc

import (
	"gluon/internal/algorithms/relax"
	"gluon/internal/dsys"
)

// FieldID namespaces cc's component field in Gluon's tag space.
const FieldID = 2

var alg = relax.Algorithm{Name: "cc", FieldID: FieldID, FieldName: "cc-comp", Step: relax.Same, SeedIDs: true}

// NewLigra builds the level-synchronous label-propagation program.
func NewLigra(workers int) dsys.ProgramFactory { return relax.NewLigra(alg, 0, workers) }

// NewGalois builds the asynchronous label-propagation program.
func NewGalois(workers int) dsys.ProgramFactory { return relax.NewGalois(alg, 0, workers) }

// NewIrGL builds the bulk-synchronous device program.
func NewIrGL(workers int) dsys.ProgramFactory { return relax.NewIrGL(alg, 0, workers) }
