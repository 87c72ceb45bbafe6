package graph

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func smallGraph(t *testing.T) *CSR {
	t.Helper()
	// 0→1, 0→2, 1→2, 2→0, 3 isolated
	g := Build(4, []LocalEdge{
		{Src: 0, Dst: 1, Weight: 10},
		{Src: 0, Dst: 2, Weight: 20},
		{Src: 1, Dst: 2, Weight: 30},
		{Src: 2, Dst: 0, Weight: 40},
	}, true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := smallGraph(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.OutDegree(0), g.OutDegree(3))
	}
	if !reflect.DeepEqual(g.Neighbors(0), []uint32{1, 2}) {
		t.Fatalf("neighbors(0) = %v", g.Neighbors(0))
	}
	if !reflect.DeepEqual(g.EdgeWeights(0), []uint32{10, 20}) {
		t.Fatalf("weights(0) = %v", g.EdgeWeights(0))
	}
	if !reflect.DeepEqual(g.EdgeWeights(1), []uint32{30}) {
		t.Fatalf("weights(1) = %v", g.EdgeWeights(1))
	}
}

// TestUnweightedWeightIsOne: an unweighted graph stores no weights, and its
// readers (ref, validate) take a nil EdgeWeights as weight 1 on every edge.
func TestUnweightedWeightIsOne(t *testing.T) {
	g := Build(2, []LocalEdge{{Src: 0, Dst: 1, Weight: 7}}, false)
	if g.EdgeWeights(0) != nil || g.Weights != nil {
		t.Fatal("unweighted graph has weights")
	}
}

func TestTranspose(t *testing.T) {
	g := smallGraph(t)
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edge count %d", tr.NumEdges())
	}
	// In-edges of 2 are from 0 (w 20) and 1 (w 30).
	sortNeighbors(tr)
	if !reflect.DeepEqual(tr.Neighbors(2), []uint32{0, 1}) {
		t.Fatalf("transpose neighbors(2) = %v", tr.Neighbors(2))
	}
	if !reflect.DeepEqual(tr.EdgeWeights(2), []uint32{20, 30}) {
		t.Fatalf("transpose weights(2) = %v", tr.EdgeWeights(2))
	}
}

func TestInDegrees(t *testing.T) {
	g := smallGraph(t)
	if !reflect.DeepEqual(g.InDegrees(), []uint32{1, 1, 2, 0}) {
		t.Fatalf("in-degrees = %v", g.InDegrees())
	}
}

func TestStats(t *testing.T) {
	g := smallGraph(t)
	s := g.Stats()
	if s.NumNodes != 4 || s.NumEdges != 4 || s.MaxOutDeg != 2 || s.MaxInDeg != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDegree != 1.0 {
		t.Fatalf("avg degree = %f", s.AvgDegree)
	}
	if g.MaxOutDegreeNode() != 0 {
		t.Fatalf("max out-degree node = %d", g.MaxOutDegreeNode())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := smallGraph(t)
	g.Dst[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range destination")
	}
	g = smallGraph(t)
	g.Offsets[1] = 100
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted non-monotone offsets")
	}
	g = smallGraph(t)
	g.Weights = g.Weights[:2]
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted short weights")
	}
}

func TestFromEdgesErrors(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{Src: 5, Dst: 0}}, false); err == nil {
		t.Fatal("FromEdges accepted out-of-range edge")
	}
	if _, err := FromEdges(1<<33, nil, false); err == nil {
		t.Fatal("FromEdges accepted >32-bit node count")
	}
}

func TestEmptyGraph(t *testing.T) {
	var g CSR
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("zero CSR not empty")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.NumNodes != 0 || s.AvgDegree != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

// TestQuickTransposeInvolution: transposing twice and sorting restores the
// original sorted adjacency structure, for arbitrary small graphs.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 32
		edges := make([]LocalEdge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, LocalEdge{
				Src:    uint32(raw[i]) % n,
				Dst:    uint32(raw[i+1]) % n,
				Weight: uint32(i),
			})
		}
		g := Build(n, edges, true)
		tt := g.Transpose().Transpose()
		sortNeighbors(g)
		sortNeighbors(tt)
		if !reflect.DeepEqual(g.Offsets, tt.Offsets) || !reflect.DeepEqual(g.Dst, tt.Dst) {
			return false
		}
		// Weight multisets per node must match (order may differ for
		// parallel edges with equal destinations).
		for u := uint32(0); u < n; u++ {
			if weightSum(g, u) != weightSum(tt, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sortNeighbors sorts each node's adjacency list of a weighted graph by
// destination, weights following, for canonical comparisons.
func sortNeighbors(g *CSR) {
	for u := uint32(0); u < g.NumNodes(); u++ {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		sort.Sort(adjacency{g.Dst[lo:hi], g.Weights[lo:hi]})
	}
}

type adjacency struct{ dst, w []uint32 }

func (a adjacency) Len() int           { return len(a.dst) }
func (a adjacency) Less(i, j int) bool { return a.dst[i] < a.dst[j] }
func (a adjacency) Swap(i, j int) {
	a.dst[i], a.dst[j] = a.dst[j], a.dst[i]
	a.w[i], a.w[j] = a.w[j], a.w[i]
}

func weightSum(g *CSR, u uint32) uint64 {
	var s uint64
	for _, w := range g.EdgeWeights(u) {
		s += uint64(w)
	}
	return s
}

// TestQuickDegreeConservation: sum of out-degrees equals sum of in-degrees
// equals the edge count.
func TestQuickDegreeConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 64
		edges := make([]LocalEdge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, LocalEdge{Src: uint32(raw[i]) % n, Dst: uint32(raw[i+1]) % n})
		}
		g := Build(n, edges, false)
		var outSum, inSum uint64
		for u := uint32(0); u < n; u++ {
			outSum += uint64(g.OutDegree(u))
		}
		for _, d := range g.InDegrees() {
			inSum += uint64(d)
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	const n = 1 << 14
	edges := make([]LocalEdge, 8*n)
	for i := range edges {
		edges[i] = LocalEdge{Src: uint32(i*2654435761) % n, Dst: uint32(i*40503) % n}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(n, edges, false)
	}
}

func BenchmarkTranspose(b *testing.B) {
	const n = 1 << 14
	edges := make([]LocalEdge, 8*n)
	for i := range edges {
		edges[i] = LocalEdge{Src: uint32(i*2654435761) % n, Dst: uint32(i*40503) % n}
	}
	g := Build(n, edges, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Transpose()
	}
}
