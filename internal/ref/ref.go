// Package ref provides simple, obviously-correct sequential implementations
// of the benchmark algorithms. Tests compare every distributed system ×
// partitioning policy × optimization configuration against these oracles.
package ref

import (
	"container/heap"

	"gluon/internal/fields"
	"gluon/internal/graph"
)

// BFS returns each node's BFS level from source (Infinity if unreachable).
func BFS(g *graph.CSR, source uint32) []uint32 {
	n := g.NumNodes()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = fields.InfinityU32
	}
	if source >= n {
		return dist
	}
	dist[source] = 0
	queue := []uint32{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == fields.InfinityU32 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node uint32
	dist uint32
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// SSSP returns shortest-path distances from source via Dijkstra
// (weights must be non-negative; unweighted graphs count hops).
func SSSP(g *graph.CSR, source uint32) []uint32 {
	n := g.NumNodes()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = fields.InfinityU32
	}
	if source >= n {
		return dist
	}
	dist[source] = 0
	q := &pq{{node: source, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		nbrs := g.Neighbors(it.node)
		ws := g.EdgeWeights(it.node)
		for i, v := range nbrs {
			w := uint32(1)
			if ws != nil {
				w = ws[i]
			}
			nd := it.dist + w
			if nd < it.dist { // overflow saturation, mirrors relax.Out
				nd = fields.InfinityU32 - 1
			}
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(q, pqItem{node: v, dist: nd})
			}
		}
	}
	return dist
}

// CC returns, for each node, the minimum node ID in its connected component,
// treating edges as undirected (matching label propagation on a
// symmetrized graph). Union-find with path halving.
func CC(g *graph.CSR) []uint32 {
	n := g.NumNodes()
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b uint32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Root at the smaller ID so labels are min-IDs.
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for u := uint32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			union(u, v)
		}
	}
	out := make([]uint32, n)
	for u := uint32(0); u < n; u++ {
		out[u] = find(u)
	}
	return out
}

// PageRank runs the damped pull recurrence rank(v) = (1-alpha) +
// alpha·Σ rank(u)/outdeg(u) until no rank moves more than tol, up to
// maxIter rounds. It matches the distributed programs' formulation exactly
// (including termination), so results are comparable to within float
// reassociation error.
func PageRank(g *graph.CSR, alpha, tol float64, maxIter int) []float64 {
	n := g.NumNodes()
	in := g.Transpose()
	outdeg := make([]uint64, n)
	for u := uint32(0); u < n; u++ {
		outdeg[u] = uint64(g.OutDegree(u))
	}
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 - alpha
	}
	next := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for v := uint32(0); v < n; v++ {
			var sum float64
			for _, u := range in.Neighbors(v) {
				sum += rank[u] / float64(outdeg[u])
			}
			next[v] = (1 - alpha) + alpha*sum
			if abs(next[v]-rank[v]) > tol {
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

// BC returns each node's single-source dependency δ from source, by
// sequential Brandes: a BFS that counts shortest paths σ, then a sweep in
// reverse BFS order accumulating δ(v) = Σ σ(v)/σ(w)·(1+δ(w)) over the
// successors w one level deeper. Unweighted; parallel edges count as
// distinct paths, as they do in the distributed program.
func BC(g *graph.CSR, source uint32) []float64 {
	n := g.NumNodes()
	level := make([]uint32, n)
	sigma := make([]float64, n)
	for i := range level {
		level[i] = fields.InfinityU32
	}
	level[source] = 0
	sigma[source] = 1
	var order []uint32
	queue := []uint32{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, w := range g.Neighbors(u) {
			if level[w] == fields.InfinityU32 {
				level[w] = level[u] + 1
				queue = append(queue, w)
			}
			if level[w] == level[u]+1 {
				sigma[w] += sigma[u]
			}
		}
	}
	delta := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, w := range g.Neighbors(v) {
			if level[w] == level[v]+1 && sigma[w] > 0 {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
		}
	}
	return delta
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Symmetrize returns the edge list with every reverse edge added, the
// preprocessing cc workloads use.
func Symmetrize(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return out
}
