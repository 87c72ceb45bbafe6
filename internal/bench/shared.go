package bench

import (
	"fmt"
	"time"

	"gluon/internal/algorithms/relax"
	"gluon/internal/bitset"
	"gluon/internal/graph"
)

// Shared-memory (single-host, no partitioning, no Gluon) runs of the
// engines, used by Table 4 to measure the overhead the distributed layer
// adds on one host — the paper's Ligra-vs-D-Ligra / Galois-vs-D-Galois
// comparison. The label benchmarks run the very schedules the distributed
// programs run (internal/algorithms/relax), on the raw CSR.

// RunShared runs the benchmark on the raw engine and returns the elapsed
// time. engine is "ligra" or "galois".
func RunShared(engine, benchmark string, w *Workload, p Params) (time.Duration, error) {
	g := w.CSR
	if benchmark == "cc" {
		_, g = w.Symmetrized()
	}
	start := time.Now()
	var err error
	switch {
	case benchmark != "pr":
		_, err = sharedLabels(engine, benchmark, g, w.Source, p.Workers)
	case engine == "ligra" || engine == "galois":
		sharedPR(g, p.PRTolerance, p.PRMaxIters, p.Workers)
	default:
		err = fmt.Errorf("bench: unknown shared engine %q", engine)
	}
	return time.Since(start), err
}

// sharedLabels runs bfs, sssp or cc to convergence on one CSR and returns
// the labels. Ligra loops until the frontier empties; Galois needs no
// rounds at all on shared memory — one do_all drains to quiescence.
func sharedLabels(engine, benchmark string, g *graph.CSR, source uint32, workers int) ([]uint32, error) {
	labels := make([]uint32, g.NumNodes())
	var step relax.Step
	var frontier *bitset.Bitset
	switch benchmark {
	case "bfs", "sssp":
		step = relax.Hop
		if benchmark == "sssp" {
			step = relax.Weight
		}
		frontier = relax.SeedSource(labels, source, true)
	case "cc":
		step = relax.Same
		frontier = relax.SeedIDs(labels, func(u uint32) uint64 { return uint64(u) })
	default:
		return nil, fmt.Errorf("bench: unknown benchmark %q", benchmark)
	}
	switch engine {
	case "ligra":
		round := relax.Ligra(g, g.Transpose, labels, step, workers)
		for frontier.Any() {
			frontier = round(frontier)
		}
	case "galois":
		relax.Galois(g, labels, step, workers)(frontier)
	default:
		return nil, fmt.Errorf("bench: unknown shared engine %q", engine)
	}
	return labels, nil
}

// sharedPR is the engine-independent pull pagerank on one CSR.
func sharedPR(g *graph.CSR, tol float64, maxIters, workers int) []float64 {
	if tol <= 0 {
		tol = 1e-6
	}
	if maxIters <= 0 {
		maxIters = 100
	}
	const alpha = 0.85
	in := g.Transpose()
	n := g.NumNodes()
	outdeg := make([]float64, n)
	for u := uint32(0); u < n; u++ {
		outdeg[u] = float64(g.OutDegree(u))
	}
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 - alpha
	}
	next := make([]float64, n)
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for v := uint32(0); v < n; v++ {
			var sum float64
			for _, u := range in.Neighbors(v) {
				if outdeg[u] > 0 {
					sum += rank[u] / outdeg[u]
				}
			}
			next[v] = (1 - alpha) + alpha*sum
			if d := next[v] - rank[v]; d > tol || d < -tol {
				changed = true
			}
		}
		rank, next = next, rank
		if !changed {
			break
		}
	}
	return rank
}
