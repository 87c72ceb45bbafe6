// Package galois implements a Galois-style shared-memory engine: parallel
// do_all over an asynchronous chunked worklist. Unlike the level-synchronous
// Ligra engine, operator applications may generate new work consumed in the
// same round (chaotic relaxation), so label updates propagate transitively
// within a host before any communication happens. The paper's §5.4
// attributes D-Galois' advantage over D-Ligra on high-diameter inputs to
// exactly this property. Interfaced with Gluon this becomes D-Galois.
package galois

import (
	"gluon/internal/bitset"
	"gluon/internal/graph"
	"gluon/internal/worklist"
)

// Engine holds the local graph and scheduling configuration, and keeps its
// worklist and seed list from one DoAll to the next. One DoAll at a time.
type Engine struct {
	Graph *graph.CSR
	// Workers sizes the worker pool; 0 means GOMAXPROCS.
	Workers int

	ex    worklist.Executor
	op    Operator
	apply func(u uint32, push func(uint32)) // op bound to the engine, built once
	seeds []uint32
}

// New returns an engine over the local graph.
func New(g *graph.CSR, workers int) *Engine {
	e := &Engine{Graph: g, Workers: workers}
	e.apply = func(u uint32, push func(uint32)) { e.op(e, u, push) }
	return e
}

// Operator is a push-style vertex operator: applied to active node u, it
// may update u's out-neighbors and activate them by calling push. All label
// updates must be performed with atomics (multiple workers may target the
// same destination concurrently).
type Operator func(e *Engine, u uint32, push func(uint32))

// DoAll drains the initial active set plus all transitively generated work
// through op, asynchronously, until local quiescence. It returns the number
// of operator applications.
func (e *Engine) DoAll(initial []uint32, op Operator) uint64 {
	e.ex.Workers, e.op = e.Workers, op
	return e.ex.Run(initial, e.apply)
}

// DoAllFrontier is DoAll with a bitset initial frontier, read into a seed
// list the engine reuses.
func (e *Engine) DoAllFrontier(frontier *bitset.Bitset, op Operator) uint64 {
	e.seeds = frontier.AppendIndices(e.seeds[:0])
	return e.DoAll(e.seeds, op)
}
