package irgl

import (
	"sync/atomic"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/fields"
	"gluon/internal/generate"
	"gluon/internal/graph"
	"gluon/internal/ref"
)

func rmatCSR(t testing.TB) *graph.CSR {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 55}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKernelMasked(t *testing.T) {
	g := rmatCSR(t)
	d := New(g, 4)
	active := bitset.New(g.NumNodes())
	active.Set(0)
	active.Set(100)
	var visits atomic.Uint64
	d.KernelMasked(active, func(u uint32) {
		if u != 0 && u != 100 {
			t.Errorf("visited inactive node %d", u)
		}
		visits.Add(1)
	})
	if visits.Load() != 2 {
		t.Fatalf("visits %d", visits.Load())
	}
}

// TestLevelSyncBFS: repeated masked kernels implement level-by-level BFS.
func TestLevelSyncBFS(t *testing.T) {
	g := rmatCSR(t)
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)

	d := New(g, 4)
	dist := make([]uint32, g.NumNodes())
	for i := range dist {
		dist[i] = fields.InfinityU32
	}
	dist[source] = 0
	frontier := bitset.New(g.NumNodes())
	frontier.Set(source)
	for frontier.Any() {
		next := bitset.New(g.NumNodes())
		d.KernelMasked(frontier, func(u uint32) {
			du := fields.AtomicLoadU32(&dist[u])
			for _, v := range g.Neighbors(u) {
				if fields.AtomicMinU32(&dist[v], du+1) {
					next.Set(v)
				}
			}
		})
		frontier = next
	}
	for u := range want {
		if dist[u] != want[u] {
			t.Fatalf("node %d: %d, want %d", u, dist[u], want[u])
		}
	}
}
