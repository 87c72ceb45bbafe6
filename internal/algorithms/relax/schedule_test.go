package relax

import (
	"slices"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/engine/irgl"
	"gluon/internal/generate"
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

// rmat is a small unweighted power-law graph, and a vertex of it whose
// out-edges are well under Ligra's dense threshold.
func rmat(t *testing.T) (*graph.CSR, uint32) {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 5}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < g.NumNodes(); u++ {
		if d := g.OutDegree(u); d > 0 && 100*uint64(d) < g.NumEdges() {
			return g, u
		}
	}
	t.Fatal("no sparse source")
	return nil, 0
}

type namedSchedule struct {
	name  string
	round Schedule
}

// schedules builds each engine's schedule over g and labels.
func schedules(g *graph.CSR, labels []uint32, step Step, workers int) []namedSchedule {
	return []namedSchedule{
		{"ligra", Ligra(g, g.Transpose, labels, step, workers)},
		{"galois", Galois(g, labels, step, workers)},
		{"irgl", IrGL(irgl.New(g, workers), labels, step)},
	}
}

// TestSchedulesAllocateNothing: once its vertex list, worklist chunks and
// output sets exist, a round on one worker allocates nothing — on Ligra's
// push path (one sparse source), its pull path (cc's all-active start) and
// the other two engines.
func TestSchedulesAllocateNothing(t *testing.T) {
	g, source := rmat(t)
	for _, c := range []struct {
		name string
		step Step
		seed func(labels []uint32) *bitset.Bitset
	}{
		{"push", Hop, func(l []uint32) *bitset.Bitset { return SeedSource(l, source, true) }},
		{"pull", Same, func(l []uint32) *bitset.Bitset { return SeedIDs(l, func(u uint32) uint64 { return uint64(u) }) }},
	} {
		labels := make([]uint32, g.NumNodes())
		frontier := c.seed(labels)
		start := slices.Clone(labels)
		for _, s := range schedules(g, labels, c.step, 1) {
			round := func() {
				copy(labels, start)
				if s.round(frontier).Count() == 0 {
					t.Fatalf("%s %s: a round from the seed lowered nothing", s.name, c.name)
				}
			}
			round() // grows the lists
			if n := testing.AllocsPerRun(10, round); n != 0 {
				t.Errorf("%s %s: %v allocations per round, want 0", s.name, c.name, n)
			}
		}
	}
}

// TestScheduleBufferLifetime replays the BSP runner's compute-ahead: b is
// Round(a), Sync adds to b, and Round(b) runs while the runner may still
// read a and b. That round must write neither and return a set of its own.
func TestScheduleBufferLifetime(t *testing.T) {
	g, source := rmat(t)
	labels := make([]uint32, g.NumNodes())
	for _, s := range schedules(g, labels, Hop, 2) {
		a := SeedSource(labels, source, true)
		b := s.round(a)
		b.Set(g.NumNodes() - 1) // a remotely written proxy, as Sync adds one
		wantA, wantB := slices.Clone(a.Words()), slices.Clone(b.Words())
		c := s.round(b)
		if b == a || c == b || c == a {
			t.Errorf("%s: rounds returned a=%p b=%p c=%p; want three distinct sets", s.name, a, b, c)
		}
		if !slices.Equal(a.Words(), wantA) || !slices.Equal(b.Words(), wantB) {
			t.Errorf("%s: Round(b) wrote its frontier or the one before", s.name)
		}
	}
}
