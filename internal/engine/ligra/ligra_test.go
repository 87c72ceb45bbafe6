package ligra

import (
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/fields"
	"gluon/internal/generate"
	"gluon/internal/graph"
	"gluon/internal/ref"
)

func rmatCSR(t testing.TB, scale uint) *graph.CSR {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: scale, EdgeFactor: 8, Seed: 33}
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

// bfsWith runs a full BFS through EdgeMap with the given dense threshold;
// pull false leaves Dense nil, forcing pure push.
func bfsWith(g *Graph, source uint32, threshold float64, pull bool) []uint32 {
	dist := make([]uint32, g.Out.NumNodes())
	for i := range dist {
		dist[i] = fields.InfinityU32
	}
	dist[source] = 0
	frontier := bitset.New(g.Out.NumNodes())
	frontier.Set(source)
	cfg := EdgeMapConfig{
		Workers:        4,
		DenseThreshold: threshold,
		Push: func(s uint32, activate func(uint32)) {
			ds := fields.AtomicLoadU32(&dist[s])
			for _, d := range g.Out.Neighbors(s) {
				if fields.AtomicMinU32(&dist[d], ds+1) {
					activate(d)
				}
			}
		},
	}
	if pull {
		cfg.Dense = func(frontier *bitset.Bitset) func(uint32) bool {
			return func(d uint32) bool {
				if fields.AtomicLoadU32(&dist[d]) != fields.InfinityU32 {
					return false
				}
				for _, s := range g.In.Neighbors(d) {
					if frontier.Test(s) {
						fields.AtomicStoreU32(&dist[d], fields.AtomicLoadU32(&dist[s])+1)
						return true
					}
				}
				return false
			}
		}
	}
	for frontier.Any() {
		frontier = EdgeMap(g, frontier, cfg)
	}
	return dist
}

// TestPushPullEquivalence: BFS results are identical whether edgeMap runs
// pure push, pure pull-when-possible, or the hybrid direction optimizer,
// and all match sequential BFS.
func TestPushPullEquivalence(t *testing.T) {
	csr := rmatCSR(t, 10)
	source := csr.MaxOutDegreeNode()
	want := ref.BFS(csr, source)

	gPushOnly := &Graph{Out: csr}
	gBoth := &Graph{Out: csr, In: csr.Transpose()}

	push := bfsWith(gPushOnly, source, 0, false)
	hybrid := bfsWith(gBoth, source, 0, true)        // Ligra default 1/20
	denseHappy := bfsWith(gBoth, source, 1e-9, true) // dense almost always

	for u := range want {
		if push[u] != want[u] {
			t.Fatalf("push: node %d = %d, want %d", u, push[u], want[u])
		}
		if hybrid[u] != want[u] {
			t.Fatalf("hybrid: node %d = %d, want %d", u, hybrid[u], want[u])
		}
		if denseHappy[u] != want[u] {
			t.Fatalf("dense: node %d = %d, want %d", u, denseHappy[u], want[u])
		}
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	g := &Graph{Out: rmatCSR(t, 8)}
	next := EdgeMap(g, bitset.New(g.Out.NumNodes()), EdgeMapConfig{
		Push: func(s uint32, activate func(uint32)) { t.Fatal("push called") },
	})
	if next.Any() {
		t.Fatal("empty frontier produced output")
	}
	if next := EdgeMap(g, nil, EdgeMapConfig{}); next.Any() {
		t.Fatal("nil frontier produced output")
	}
}

func TestVertexMapVisitsFrontierOnly(t *testing.T) {
	f := bitset.New(100)
	f.Set(3)
	f.Set(97)
	visited := map[uint32]bool{}
	VertexMap(f, 1, func(u uint32) { visited[u] = true })
	if len(visited) != 2 || !visited[3] || !visited[97] {
		t.Fatalf("visited %v", visited)
	}
}

// TestDenseCalledOncePerDensePass pins the Dense contract operators build
// their per-pass state on: one call, with the pass's frontier, when the
// frontier is dense; none when it is sparse; and the pull it returns is
// applied to every vertex exactly once.
func TestDenseCalledOncePerDensePass(t *testing.T) {
	// star-in graph: all nodes point at node 0.
	var edges []graph.LocalEdge
	const n = 64
	for i := uint32(1); i < n; i++ {
		edges = append(edges, graph.LocalEdge{Src: i, Dst: 0})
	}
	out := graph.Build(n, edges, false)
	g := &Graph{Out: out, In: out.Transpose()}

	frontier := bitset.New(n)
	for i := uint32(1); i < n; i++ {
		frontier.Set(i)
	}
	for _, c := range []struct {
		name      string
		threshold float64
		wantDense int
	}{
		{"dense", 1e-9, 1},
		{"sparse", 2, 0}, // no frontier has more than 2·|E| out-edges
	} {
		denseCalls, pulls, pushes := 0, 0, 0
		next := EdgeMap(g, frontier, EdgeMapConfig{
			Workers:        1,
			DenseThreshold: c.threshold,
			Push: func(s uint32, activate func(uint32)) {
				pushes++
				activate(0)
			},
			Dense: func(f *bitset.Bitset) func(uint32) bool {
				if f != frontier {
					t.Errorf("%s: Dense got a different frontier", c.name)
				}
				denseCalls++
				return func(d uint32) bool { pulls++; return d == 0 }
			},
		})
		if !next.Test(0) || next.Count() != 1 {
			t.Errorf("%s: next frontier has %d vertices, want just node 0", c.name, next.Count())
		}
		if denseCalls != c.wantDense || pulls != c.wantDense*n || pushes != (1-c.wantDense)*(n-1) {
			t.Errorf("%s: %d Dense calls, %d pulls, %d pushes", c.name, denseCalls, pulls, pushes)
		}
	}
}

func BenchmarkEdgeMapPush(b *testing.B) {
	csr := rmatCSR(b, 12)
	g := &Graph{Out: csr}
	frontier := bitset.New(csr.NumNodes())
	for i := uint32(0); i < csr.NumNodes(); i += 16 {
		frontier.Set(i)
	}
	val := make([]uint32, csr.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMap(g, frontier, EdgeMapConfig{
			Workers: 4,
			Push: func(s uint32, activate func(uint32)) {
				for _, d := range csr.Neighbors(s) {
					fields.AtomicMinU32(&val[d], s)
				}
			},
		})
	}
}
