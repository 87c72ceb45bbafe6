// Package validate checks analytics results by their defining properties
// rather than by recomputing them sequentially — the graph500-style
// validation discipline. Property checks run in O(|E|) and therefore work
// at scales where a Dijkstra or power-iteration oracle would be slower
// than the distributed run being checked. bc is the exception: a
// dependency has no local property to check, so BC recomputes it with
// sequential Brandes, which is O(|E|) for one source too.
package validate

import (
	"fmt"
	"math"

	"gluon/internal/fields"
	"gluon/internal/graph"
	"gluon/internal/ref"
)

// BFS checks that dist is a valid BFS level assignment from source:
//
//	(1) dist[source] == 0 and every other finite level is positive;
//	(2) every edge (u,v) with finite dist[u] satisfies
//	    dist[v] <= dist[u]+1 (no edge is "skipped");
//	(3) every node with finite level > 0 has an in-neighbor exactly one
//	    level closer (its level is achieved, not invented);
//	(4) no finite-level node is adjacent from an unreached one... (follows
//	    from (2): unreached u imposes nothing; reached u bounds v).
func BFS(g *graph.CSR, source uint32, dist []uint32) error {
	n := g.NumNodes()
	if uint32(len(dist)) != n {
		return fmt.Errorf("validate: %d levels for %d nodes", len(dist), n)
	}
	if dist[source] != 0 {
		return fmt.Errorf("validate: source level %d, want 0", dist[source])
	}
	for u := uint32(0); u < n; u++ {
		if u != source && dist[u] == 0 {
			return fmt.Errorf("validate: node %d has level 0 but is not the source", u)
		}
	}
	// (2): edge relaxation.
	for u := uint32(0); u < n; u++ {
		if dist[u] == fields.InfinityU32 {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if dist[v] > dist[u]+1 {
				return fmt.Errorf("validate: edge (%d,%d) skipped: levels %d → %d", u, v, dist[u], dist[v])
			}
		}
	}
	// (3): achievability, via one transpose pass.
	achieved := make([]bool, n)
	achieved[source] = true
	for u := uint32(0); u < n; u++ {
		if dist[u] == fields.InfinityU32 {
			achieved[u] = true // nothing to achieve
			continue
		}
		for _, v := range g.Neighbors(u) {
			if dist[v] == dist[u]+1 {
				achieved[v] = true
			}
		}
	}
	for u := uint32(0); u < n; u++ {
		if !achieved[u] {
			return fmt.Errorf("validate: node %d at level %d has no predecessor at level %d", u, dist[u], dist[u]-1)
		}
	}
	return nil
}

// SSSP checks that dist is a valid shortest-path assignment from source:
// triangle inequality over every edge, plus achievability (every finite
// distance is witnessed by an incoming edge that is tight). Path sums
// saturate at Infinity-1 as they do in the operator, so both properties
// hold on graphs whose distances outgrow uint32.
func SSSP(g *graph.CSR, source uint32, dist []uint32) error {
	n := g.NumNodes()
	if uint32(len(dist)) != n {
		return fmt.Errorf("validate: %d distances for %d nodes", len(dist), n)
	}
	if dist[source] != 0 {
		return fmt.Errorf("validate: source distance %d, want 0", dist[source])
	}
	tight := make([]bool, n)
	tight[source] = true
	for u := uint32(0); u < n; u++ {
		if dist[u] == fields.InfinityU32 {
			continue
		}
		ws := g.EdgeWeights(u)
		for i, v := range g.Neighbors(u) {
			w := uint32(1)
			if ws != nil {
				w = ws[i]
			}
			through := dist[u] + w
			if through < dist[u] { // the operator saturates rather than wraps
				through = fields.InfinityU32 - 1
			}
			if dist[v] > through {
				return fmt.Errorf("validate: edge (%d,%d,w=%d) violates triangle inequality: %d → %d",
					u, v, w, dist[u], dist[v])
			}
			if dist[v] == through {
				tight[v] = true
			}
		}
	}
	for u := uint32(0); u < n; u++ {
		if dist[u] != fields.InfinityU32 && !tight[u] {
			return fmt.Errorf("validate: node %d distance %d not witnessed by any edge", u, dist[u])
		}
	}
	return nil
}

// CC checks that comp is a valid minimum-label component assignment on an
// undirected (symmetrized) graph: endpoints of every edge share a label,
// labels are canonical (comp[comp[u]] == comp[u]), no label exceeds its
// node's ID, and the label's node is actually connected to u — which,
// given per-edge consistency and canonicality, reduces to comp[u] <= u
// with equality achieved at the canonical node.
func CC(g *graph.CSR, comp []uint32) error {
	n := g.NumNodes()
	if uint32(len(comp)) != n {
		return fmt.Errorf("validate: %d labels for %d nodes", len(comp), n)
	}
	for u := uint32(0); u < n; u++ {
		if comp[u] > u {
			return fmt.Errorf("validate: node %d label %d above own ID", u, comp[u])
		}
		if comp[comp[u]] != comp[u] {
			return fmt.Errorf("validate: label %d of node %d is not canonical", comp[u], u)
		}
		for _, v := range g.Neighbors(u) {
			if comp[u] != comp[v] {
				return fmt.Errorf("validate: edge (%d,%d) crosses labels %d and %d", u, v, comp[u], comp[v])
			}
		}
	}
	return nil
}

// PageRank checks the damped fixed point: every rank is at least the
// teleport mass, finite, and satisfies the recurrence
// rank(v) ≈ (1-α) + α·Σ rank(u)/outdeg(u) within tol.
func PageRank(g *graph.CSR, alpha float64, rank []float64, tol float64) error {
	n := g.NumNodes()
	if uint32(len(rank)) != n {
		return fmt.Errorf("validate: %d ranks for %d nodes", len(rank), n)
	}
	if tol <= 0 {
		tol = 1e-6
	}
	for u, r := range rank {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("validate: node %d rank %v", u, r)
		}
		if r < (1-alpha)-tol {
			return fmt.Errorf("validate: node %d rank %g below teleport mass %g", u, r, 1-alpha)
		}
	}
	in := g.Transpose()
	outdeg := make([]float64, n)
	for u := uint32(0); u < n; u++ {
		outdeg[u] = float64(g.OutDegree(u))
	}
	for v := uint32(0); v < n; v++ {
		var sum float64
		for _, u := range in.Neighbors(v) {
			if outdeg[u] > 0 {
				sum += rank[u] / outdeg[u]
			}
		}
		want := (1 - alpha) + alpha*sum
		// Relative tolerance: iterative convergence at tol leaves residual
		// error proportional to the rank's magnitude (hubs can carry ranks
		// orders of magnitude above the teleport mass).
		if math.Abs(rank[v]-want) > tol*10*(1+math.Abs(want)) {
			return fmt.Errorf("validate: node %d rank %g not a fixed point (recurrence gives %g)", v, rank[v], want)
		}
	}
	return nil
}

// KCore checks the k-core fixed point: every surviving node has at least k
// surviving neighbors, and — via one peeling replay — every removed node
// was genuinely peelable (the survivor set is the *maximal* k-core).
func KCore(g *graph.CSR, k uint64, inCore []bool) error {
	n := g.NumNodes()
	if uint32(len(inCore)) != n {
		return fmt.Errorf("validate: %d flags for %d nodes", len(inCore), n)
	}
	for u := uint32(0); u < n; u++ {
		if !inCore[u] {
			continue
		}
		var surviving uint64
		for _, v := range g.Neighbors(u) {
			if inCore[v] {
				surviving++
			}
		}
		if surviving < k {
			return fmt.Errorf("validate: node %d in %d-core with only %d surviving neighbors", u, k, surviving)
		}
	}
	// Maximality: peeling the full graph must remove every non-survivor.
	deg := make([]uint64, n)
	for u := uint32(0); u < n; u++ {
		deg[u] = uint64(g.OutDegree(u))
	}
	dead := make([]bool, n)
	var queue []uint32
	for u := uint32(0); u < n; u++ {
		if deg[u] < k {
			dead[u] = true
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if !dead[v] {
				deg[v]--
				if deg[v] < k {
					dead[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	for u := uint32(0); u < n; u++ {
		if inCore[u] == dead[u] {
			return fmt.Errorf("validate: node %d in-core=%v but peeling says dead=%v", u, inCore[u], dead[u])
		}
	}
	return nil
}

// BC checks single-source dependencies against sequential Brandes (ref.BC)
// within the relative tolerance tol: the distributed sums add in another
// order, so low bits may differ.
func BC(g *graph.CSR, source uint32, delta []float64, tol float64) error {
	want := ref.BC(g, source)
	if len(delta) != len(want) {
		return fmt.Errorf("validate: %d dependencies for %d nodes", len(delta), len(want))
	}
	for v, w := range want {
		if !(math.Abs(delta[v]-w) <= tol*(1+math.Abs(w))) { // NaN fails too
			return fmt.Errorf("validate: node %d dependency %g, Brandes gives %g", v, delta[v], w)
		}
	}
	return nil
}
