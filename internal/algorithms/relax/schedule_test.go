package relax

import (
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/graph"
)

// starIn is the graph 1..n-1 → 0: any frontier holding most of the leaves
// is dense, and node 0 sees every one of them as an in-neighbour.
func starIn(n uint32) *graph.CSR {
	var edges []graph.LocalEdge
	for i := uint32(1); i < n; i++ {
		edges = append(edges, graph.LocalEdge{Src: i, Dst: 0})
	}
	return graph.Build(n, edges, false)
}

func leaves(n uint32) *bitset.Bitset {
	f := bitset.New(n)
	for i := uint32(1); i < n; i++ {
		f.Set(i)
	}
	return f
}

// TestLigraDensePassIsLabelCorrecting: a dense pass must lower a vertex
// that is already reached but over-estimated — what an asynchronous peer's
// early broadcast leaves behind — and must leave alone one the frontier
// cannot improve.
func TestLigraDensePassIsLabelCorrecting(t *testing.T) {
	const n = 64
	for _, c := range []struct {
		name   string
		step   Step
		centre uint32 // label of node 0 going in
		want   uint32
		active bool
	}{
		{"hop lowers an over-estimate", Hop, 10, 4, true},
		{"hop lowers unreached", Hop, Infinity, 4, true},
		{"hop keeps an equal label", Hop, 4, 4, false},
		{"same lowers an over-estimate", Same, 10, 3, true},
		{"same keeps a smaller label", Same, 2, 2, false},
	} {
		labels := make([]uint32, n)
		for i := range labels {
			labels[i] = 7
		}
		labels[0], labels[n/2] = c.centre, 3 // the frontier's least label sits mid-scan
		next := Ligra(starIn(n), starIn(n).Transpose, labels, c.step, 2)(leaves(n))
		if labels[0] != c.want || next.Test(0) != c.active || next.Count() > 1 {
			t.Errorf("%s: node 0 = %d (active %v, %d updated), want %d (active %v)",
				c.name, labels[0], next.Test(0), next.Count(), c.want, c.active)
		}
	}
}

// TestLigraDenseUnreachedFrontier: a frontier that is dense but entirely at
// Infinity (mirrors a dense-mode broadcast activated) offers nothing, and
// Infinity+1 must not wrap into a label.
func TestLigraDenseUnreachedFrontier(t *testing.T) {
	const n = 64
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = Infinity
	}
	if next := Ligra(starIn(n), starIn(n).Transpose, labels, Hop, 2)(leaves(n)); next.Any() || labels[0] != Infinity {
		t.Fatalf("unreached frontier produced label %d, %d updates", labels[0], next.Count())
	}
}

// TestPullStopsAtFloor: the scan of d's in-edges ends at the first offer
// that reaches the floor. Handing in a floor above the frontier's true
// minimum makes the early exit visible: the better offer further along the
// in-edge list is never looked at.
func TestPullStopsAtFloor(t *testing.T) {
	const n = 8
	g := starIn(n).Transpose()
	frontier := leaves(n)
	labels := []uint32{Infinity, 9, 5, 9, 2, 9, 9, 9}
	if !in(g, labels, 0, Hop, frontier, 6) || labels[0] != 6 {
		t.Fatalf("floor 6: node 0 = %d, want 6 (scan should stop at in-neighbour 2)", labels[0])
	}
	if in(g, labels, 0, Hop, frontier, 6) {
		t.Fatal("a vertex at the floor was scanned again")
	}
	if !in(g, labels, 0, Hop, frontier, 3) || labels[0] != 3 {
		t.Fatalf("floor 3: node 0 = %d, want 3", labels[0])
	}
}
