package galois

import (
	"sync/atomic"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/fields"
	"gluon/internal/generate"
	"gluon/internal/graph"
	"gluon/internal/ref"
)

func rmatCSR(t testing.TB, scale uint, weighted bool) *graph.CSR {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: scale, EdgeFactor: 8, Seed: 44, Weighted: weighted}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, weighted)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAsyncBFSMatchesSequential: a single DoAll drives BFS to completion
// (chaotic relaxation converges to the fixed point).
func TestAsyncBFSMatchesSequential(t *testing.T) {
	g := rmatCSR(t, 10, false)
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)

	e := New(g, 4)
	dist := make([]uint32, g.NumNodes())
	for i := range dist {
		dist[i] = fields.InfinityU32
	}
	dist[source] = 0
	e.DoAll([]uint32{source}, func(e *Engine, u uint32, push func(uint32)) {
		du := fields.AtomicLoadU32(&dist[u])
		for _, d := range e.Graph.Neighbors(u) {
			if fields.AtomicMinU32(&dist[d], du+1) {
				push(d)
			}
		}
	})
	for u := range want {
		if dist[u] != want[u] {
			t.Fatalf("node %d: %d, want %d", u, dist[u], want[u])
		}
	}
}

// TestAsyncSSSPMatchesDijkstra: chaotic relaxation with weights.
func TestAsyncSSSPMatchesDijkstra(t *testing.T) {
	g := rmatCSR(t, 10, true)
	source := g.MaxOutDegreeNode()
	want := ref.SSSP(g, source)

	e := New(g, 4)
	dist := make([]uint32, g.NumNodes())
	for i := range dist {
		dist[i] = fields.InfinityU32
	}
	dist[source] = 0
	e.DoAll([]uint32{source}, func(e *Engine, u uint32, push func(uint32)) {
		du := fields.AtomicLoadU32(&dist[u])
		if du == fields.InfinityU32 {
			return
		}
		ws := e.Graph.EdgeWeights(u)
		for i, d := range e.Graph.Neighbors(u) {
			if fields.AtomicMinU32(&dist[d], du+ws[i]) {
				push(d)
			}
		}
	})
	for u := range want {
		if dist[u] != want[u] {
			t.Fatalf("node %d: %d, want %d", u, dist[u], want[u])
		}
	}
}

func TestDoAllFrontier(t *testing.T) {
	g := rmatCSR(t, 8, false)
	e := New(g, 2)
	f := bitset.New(g.NumNodes())
	f.Set(1)
	f.Set(5)
	var visits atomic.Uint64
	e.DoAllFrontier(f, func(e *Engine, u uint32, push func(uint32)) {
		if u != 1 && u != 5 {
			t.Errorf("unexpected item %d", u)
		}
		visits.Add(1)
	})
	if visits.Load() != 2 {
		t.Fatalf("visits %d", visits.Load())
	}
}

func BenchmarkAsyncBFS(b *testing.B) {
	g := rmatCSR(b, 13, false)
	source := g.MaxOutDegreeNode()
	e := New(g, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := make([]uint32, g.NumNodes())
		for j := range dist {
			dist[j] = fields.InfinityU32
		}
		dist[source] = 0
		e.DoAll([]uint32{source}, func(e *Engine, u uint32, push func(uint32)) {
			du := fields.AtomicLoadU32(&dist[u])
			for _, d := range e.Graph.Neighbors(u) {
				if fields.AtomicMinU32(&dist[d], du+1) {
					push(d)
				}
			}
		})
	}
}
