package dsys_test

import (
	"fmt"
	"math"
	"testing"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/algorithms/cc"
	"gluon/internal/algorithms/pr"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// testGraph builds a deterministic rmat test input.
func testGraph(t *testing.T, scale uint, weighted bool) (uint64, []graph.Edge, *graph.CSR) {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: scale, EdgeFactor: 8, Seed: 42, Weighted: weighted}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, weighted)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return cfg.NumNodes(), edges, g
}

// optConfigs are the four Figure 10 settings.
var optConfigs = map[string]gluon.Options{
	"unopt": {},
	"osi":   {StructuralInvariants: true},
	"oti":   {TemporalInvariance: true},
	"osti":  {StructuralInvariants: true, TemporalInvariance: true},
}

// systems maps a system name to per-algorithm factories.
type factories struct {
	bfs  func(source uint64) dsys.ProgramFactory
	sssp func(source uint64) dsys.ProgramFactory
	cc   func() dsys.ProgramFactory
	pr   func() dsys.ProgramFactory
}

var systems = map[string]factories{
	"d-ligra": {
		bfs:  func(s uint64) dsys.ProgramFactory { return bfs.NewLigra(s, 2) },
		sssp: func(s uint64) dsys.ProgramFactory { return sssp.NewLigra(s, 2) },
		cc:   func() dsys.ProgramFactory { return cc.NewLigra(2) },
		pr:   func() dsys.ProgramFactory { return pr.NewLigra(1e-9, 2) },
	},
	"d-galois": {
		bfs:  func(s uint64) dsys.ProgramFactory { return bfs.NewGalois(s, 2) },
		sssp: func(s uint64) dsys.ProgramFactory { return sssp.NewGalois(s, 2) },
		cc:   func() dsys.ProgramFactory { return cc.NewGalois(2) },
		pr:   func() dsys.ProgramFactory { return pr.NewGalois(1e-9, 2) },
	},
	"d-irgl": {
		bfs:  func(s uint64) dsys.ProgramFactory { return bfs.NewIrGL(s, 2) },
		sssp: func(s uint64) dsys.ProgramFactory { return sssp.NewIrGL(s, 2) },
		cc:   func() dsys.ProgramFactory { return cc.NewIrGL(2) },
		pr:   func() dsys.ProgramFactory { return pr.NewIrGL(1e-9, 2) },
	},
}

func policyOptions(numNodes uint64, g *graph.CSR) partition.Options {
	out := make([]uint32, numNodes)
	for u := uint32(0); u < g.NumNodes(); u++ {
		out[u] = g.OutDegree(u)
	}
	return partition.Options{OutDegrees: out, InDegrees: g.InDegrees()}
}

// TestBFSMatrix validates bfs across systems, policies, host counts, and
// optimization configurations against sequential BFS.
func TestBFSMatrix(t *testing.T) {
	numNodes, edges, g := testGraph(t, 9, false)
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)
	popt := policyOptions(numNodes, g)

	for sysName, f := range systems {
		for _, pol := range partition.AllKinds() {
			for _, hosts := range []int{1, 2, 3, 4} {
				name := fmt.Sprintf("%s/%s/h%d", sysName, pol, hosts)
				t.Run(name, func(t *testing.T) {
					res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
						Hosts: hosts, Policy: pol, Opt: gluon.Opt(),
						PolicyOptions: popt, CollectValues: true,
					}, f.bfs(uint64(source)))
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					checkU32(t, want, res.Values)
				})
			}
		}
	}
}

// TestBFSOptimizationConfigs validates that every optimization setting
// yields identical results.
func TestBFSOptimizationConfigs(t *testing.T) {
	numNodes, edges, g := testGraph(t, 9, false)
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)
	popt := policyOptions(numNodes, g)

	for optName, opt := range optConfigs {
		for _, pol := range partition.AllKinds() {
			t.Run(fmt.Sprintf("%s/%s", optName, pol), func(t *testing.T) {
				res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
					Hosts: 4, Policy: pol, Opt: opt,
					PolicyOptions: popt, CollectValues: true,
				}, bfs.NewGalois(uint64(source), 2))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				checkU32(t, want, res.Values)
			})
		}
	}
}

// TestSSSPMatrix validates sssp against Dijkstra.
func TestSSSPMatrix(t *testing.T) {
	numNodes, edges, g := testGraph(t, 9, true)
	source := g.MaxOutDegreeNode()
	want := ref.SSSP(g, source)
	popt := policyOptions(numNodes, g)

	for sysName, f := range systems {
		for _, pol := range partition.AllKinds() {
			name := fmt.Sprintf("%s/%s", sysName, pol)
			t.Run(name, func(t *testing.T) {
				res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
					Hosts: 3, Policy: pol, Opt: gluon.Opt(),
					PolicyOptions: popt, CollectValues: true,
				}, f.sssp(uint64(source)))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				checkU32(t, want, res.Values)
			})
		}
	}
}

// TestCCMatrix validates cc (on the symmetrized graph) against union-find.
func TestCCMatrix(t *testing.T) {
	numNodes, edges, _ := testGraph(t, 9, false)
	symEdges := ref.Symmetrize(edges)
	symG, err := graph.FromEdges(numNodes, symEdges, false)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.CC(symG)
	popt := policyOptions(numNodes, symG)

	for sysName, f := range systems {
		for _, pol := range partition.AllKinds() {
			name := fmt.Sprintf("%s/%s", sysName, pol)
			t.Run(name, func(t *testing.T) {
				res, err := dsys.Run(numNodes, symEdges, dsys.RunConfig{
					Hosts: 4, Policy: pol, Opt: gluon.Opt(),
					PolicyOptions: popt, CollectValues: true,
				}, f.cc())
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				checkU32(t, want, res.Values)
			})
		}
	}
}

// TestPageRankMatrix validates pr ranks against the sequential power
// iteration to a small tolerance.
func TestPageRankMatrix(t *testing.T) {
	numNodes, edges, g := testGraph(t, 9, false)
	want := ref.PageRank(g, pr.Alpha, 1e-9, 100)
	popt := policyOptions(numNodes, g)

	for sysName, f := range systems {
		for _, pol := range partition.AllKinds() {
			name := fmt.Sprintf("%s/%s", sysName, pol)
			t.Run(name, func(t *testing.T) {
				res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
					Hosts: 4, Policy: pol, Opt: gluon.Opt(),
					PolicyOptions: popt, CollectValues: true, MaxRounds: 100,
				}, f.pr())
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				for i, w := range want {
					if math.Abs(res.Values[i]-w) > 1e-6 {
						t.Fatalf("node %d: rank %g, want %g", i, res.Values[i], w)
					}
				}
			})
		}
	}
}

func checkU32(t *testing.T, want []uint32, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length mismatch: want %d, got %d", len(want), len(got))
	}
	bad := 0
	for i := range want {
		if float64(want[i]) != got[i] {
			bad++
			if bad <= 5 {
				t.Errorf("node %d: got %v, want %d", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d nodes wrong", bad, len(want))
	}
}
