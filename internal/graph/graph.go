// Package graph provides the in-memory graph representation used throughout
// the repository: a Compressed-Sparse-Row (CSR) adjacency structure over
// 32-bit local node IDs with optional 32-bit edge weights, plus the builder
// and transpose utilities the partitioner and engines need.
//
// Global node IDs (the IDs in the original, unpartitioned graph) are uint64;
// local IDs within a host's partition are uint32, matching the paper's setup
// where each host stores its proxies contiguously regardless of global ID.
package graph

import (
	"fmt"
)

// Edge is a single directed edge in global-ID space, the unit the
// partitioner distributes between hosts.
type Edge struct {
	Src, Dst uint64
	Weight   uint32
}

// CSR is a directed graph in compressed-sparse-row form over local IDs.
// Node u's outgoing edges are Dst[Offsets[u]:Offsets[u+1]], with parallel
// weights in Weights when HasWeights.
//
// The zero value is an empty graph.
type CSR struct {
	Offsets    []uint64 // length NumNodes+1
	Dst        []uint32 // length NumEdges
	Weights    []uint32 // length NumEdges when HasWeights, else nil
	HasWeights bool
}

// NumNodes returns the number of nodes.
func (g *CSR) NumNodes() uint32 {
	if len(g.Offsets) == 0 {
		return 0
	}
	return uint32(len(g.Offsets) - 1)
}

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() uint64 { return uint64(len(g.Dst)) }

// OutDegree returns the out-degree of node u.
func (g *CSR) OutDegree(u uint32) uint32 {
	return uint32(g.Offsets[u+1] - g.Offsets[u])
}

// Neighbors returns the destination slice for node u's outgoing edges.
// The slice aliases the graph's storage; callers must not modify it.
func (g *CSR) Neighbors(u uint32) []uint32 {
	return g.Dst[g.Offsets[u]:g.Offsets[u+1]]
}

// EdgeWeights returns the weight slice parallel to Neighbors(u).
// It returns nil for unweighted graphs.
func (g *CSR) EdgeWeights(u uint32) []uint32 {
	if !g.HasWeights {
		return nil
	}
	return g.Weights[g.Offsets[u]:g.Offsets[u+1]]
}

// LocalEdge is an edge in local-ID space, used when constructing partitions.
type LocalEdge struct {
	Src, Dst uint32
	Weight   uint32
}

// Build constructs a CSR with numNodes nodes from the given local edges.
// Edges may arrive in any order; within a node, destination order follows
// input order after a stable counting-sort by source. Set weighted when
// edge weights are meaningful.
func Build(numNodes uint32, edges []LocalEdge, weighted bool) *CSR {
	g := &CSR{Dst: make([]uint32, len(edges)), HasWeights: weighted}
	if weighted {
		g.Weights = make([]uint32, len(edges))
	}
	// Counting sort with the offset array doubling as the write cursor:
	// degrees are counted two slots up so that, after the prefix sum, slot
	// u+1 holds where u's edges start; scattering advances it to where they
	// end — which is where u+1's start, the final offset.
	offsets := make([]uint64, uint64(numNodes)+2)
	for _, e := range edges {
		offsets[uint64(e.Src)+2]++
	}
	for i := 2; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	for _, e := range edges {
		p := offsets[e.Src+1]
		offsets[e.Src+1]++
		g.Dst[p] = e.Dst
		if weighted {
			g.Weights[p] = e.Weight
		}
	}
	g.Offsets = offsets[: numNodes+1 : numNodes+1]
	return g
}

// Transpose returns the graph with every edge reversed (CSC of g). Weights
// carry over. The result is independent of g's storage.
func (g *CSR) Transpose() *CSR {
	n := g.NumNodes()
	t := &CSR{
		Offsets:    make([]uint64, n+1),
		Dst:        make([]uint32, g.NumEdges()),
		HasWeights: g.HasWeights,
	}
	if g.HasWeights {
		t.Weights = make([]uint32, g.NumEdges())
	}
	for _, d := range g.Dst {
		t.Offsets[d+1]++
	}
	for i := uint32(0); i < n; i++ {
		t.Offsets[i+1] += t.Offsets[i]
	}
	cursor := make([]uint64, n)
	copy(cursor, t.Offsets[:n])
	for u := uint32(0); u < n; u++ {
		for i, v := range g.Neighbors(u) {
			p := cursor[v]
			cursor[v]++
			t.Dst[p] = u
			if g.HasWeights {
				t.Weights[p] = g.Weights[g.Offsets[u]+uint64(i)]
			}
		}
	}
	return t
}

// InDegrees returns the in-degree of every node.
func (g *CSR) InDegrees() []uint32 {
	in := make([]uint32, g.NumNodes())
	for _, d := range g.Dst {
		in[d]++
	}
	return in
}

// Validate checks structural invariants: monotone offsets, destinations in
// range, weight array length. It returns a descriptive error on the first
// violation found.
func (g *CSR) Validate() error {
	n := g.NumNodes()
	if len(g.Offsets) == 0 {
		if len(g.Dst) != 0 {
			return fmt.Errorf("graph: %d edges but no offset array", len(g.Dst))
		}
		return nil
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	for i := uint32(0); i < n; i++ {
		if g.Offsets[i+1] < g.Offsets[i] {
			return fmt.Errorf("graph: offsets not monotone at node %d", i)
		}
	}
	if g.Offsets[n] != uint64(len(g.Dst)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.Offsets[n], len(g.Dst))
	}
	for i, d := range g.Dst {
		if d >= n {
			return fmt.Errorf("graph: edge %d destination %d out of range (n=%d)", i, d, n)
		}
	}
	if g.HasWeights && len(g.Weights) != len(g.Dst) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Dst))
	}
	return nil
}

// Properties summarizes a graph the way the paper's Table 1 does.
type Properties struct {
	NumNodes   uint64
	NumEdges   uint64
	AvgDegree  float64
	MaxOutDeg  uint64
	MaxInDeg   uint64
	MaxOutNode uint64 // node achieving MaxOutDeg
	MaxInNode  uint64 // node achieving MaxInDeg
}

// Stats computes the Table 1 style property summary of g.
func (g *CSR) Stats() Properties {
	p := Properties{NumNodes: uint64(g.NumNodes()), NumEdges: g.NumEdges()}
	if p.NumNodes > 0 {
		p.AvgDegree = float64(p.NumEdges) / float64(p.NumNodes)
	}
	for u := uint32(0); u < g.NumNodes(); u++ {
		if d := uint64(g.OutDegree(u)); d > p.MaxOutDeg {
			p.MaxOutDeg, p.MaxOutNode = d, uint64(u)
		}
	}
	for u, d := range g.InDegrees() {
		if uint64(d) > p.MaxInDeg {
			p.MaxInDeg, p.MaxInNode = uint64(d), uint64(u)
		}
	}
	return p
}

// MaxOutDegreeNode returns the node with the largest out-degree, the source
// node the paper uses for bfs and sssp.
func (g *CSR) MaxOutDegreeNode() uint32 {
	var best uint32
	var bestDeg uint32
	for u := uint32(0); u < g.NumNodes(); u++ {
		if d := g.OutDegree(u); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best
}

// FromEdges builds a CSR directly from global-ID edges, assuming global IDs
// are already dense in [0, numNodes). Used for single-host (shared-memory)
// runs where no partitioning happens.
func FromEdges(numNodes uint64, edges []Edge, weighted bool) (*CSR, error) {
	if numNodes > 1<<32-1 {
		return nil, fmt.Errorf("graph: %d nodes exceeds 32-bit local ID space", numNodes)
	}
	local := make([]LocalEdge, len(edges))
	for i, e := range edges {
		if e.Src >= numNodes || e.Dst >= numNodes {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.Src, e.Dst, numNodes)
		}
		local[i] = LocalEdge{Src: uint32(e.Src), Dst: uint32(e.Dst), Weight: e.Weight}
	}
	return Build(uint32(numNodes), local, weighted), nil
}
