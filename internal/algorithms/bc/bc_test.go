package bc_test

import (
	"fmt"
	"math"
	"testing"

	"gluon/internal/algorithms/bc"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

func input(t *testing.T, kind string, scale uint) (uint64, []graph.Edge, *graph.CSR) {
	t.Helper()
	cfg := generate.Config{Kind: kind, Scale: scale, EdgeFactor: 8, Seed: 71}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.NumNodes(), edges, g
}

func TestBCMatrix(t *testing.T) {
	numNodes, edges, g := input(t, "rmat", 9)
	source := g.MaxOutDegreeNode()
	want := ref.BC(g, source)
	for _, pol := range partition.AllKinds() {
		for _, hosts := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/h%d", pol, hosts), func(t *testing.T) {
				res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
					Hosts: hosts, Policy: pol, Opt: gluon.Opt(),
					CollectValues: true, MaxRounds: 10000,
				}, bc.New(uint64(source), 2))
				if err != nil {
					t.Fatal(err)
				}
				for u, w := range want {
					if math.Abs(res.Values[u]-w) > 1e-6*(1+math.Abs(w)) {
						t.Fatalf("node %d: δ=%g, want %g", u, res.Values[u], w)
					}
				}
			})
		}
	}
}

func TestBCChain(t *testing.T) {
	// On a chain 0→1→…→n-1 from source 0, δ(i) = n-1-i.
	cfg := generate.Config{Kind: "chain", Scale: 6, EdgeFactor: 1}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dsys.Run(cfg.NumNodes(), edges, dsys.RunConfig{
		Hosts: 3, Policy: partition.OEC, Opt: gluon.Opt(),
		CollectValues: true, MaxRounds: 10000,
	}, bc.New(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	n := int(cfg.NumNodes())
	for i := 0; i < n; i++ {
		want := float64(n - 1 - i)
		if math.Abs(res.Values[i]-want) > 1e-9 {
			t.Fatalf("node %d: δ=%g, want %g", i, res.Values[i], want)
		}
	}
}

// TestAccumulateMultiSource: dependencies summed over several sources —
// batched Brandes' outer loop, run by the caller — equal the reference sum.
func TestAccumulateMultiSource(t *testing.T) {
	numNodes, edges, g := input(t, "rmat", 8)
	sources := []uint64{uint64(g.MaxOutDegreeNode()), 1, 7}
	want := make([]float64, numNodes)
	for _, s := range sources {
		for u, d := range ref.BC(g, uint32(s)) {
			want[u] += d
		}
	}
	got := make([]float64, numNodes)
	for _, s := range sources {
		res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
			Hosts: 3, Policy: partition.CVC, Opt: gluon.Opt(),
			CollectValues: true, MaxRounds: 10000,
		}, bc.New(s, 2))
		if err != nil {
			t.Fatal(err)
		}
		for u, d := range res.Values {
			got[u] += d
		}
	}
	for u := range want {
		if math.Abs(got[u]-want[u]) > 1e-6*(1+math.Abs(want[u])) {
			t.Fatalf("node %d: %g, want %g", u, got[u], want[u])
		}
	}
}

func TestBCUnoptMatches(t *testing.T) {
	numNodes, edges, g := input(t, "webcrawl", 8)
	source := g.MaxOutDegreeNode()
	want := ref.BC(g, source)
	res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts: 4, Policy: partition.HVC, Opt: gluon.Unopt(),
		CollectValues: true, MaxRounds: 10000,
	}, bc.New(uint64(source), 2))
	if err != nil {
		t.Fatal(err)
	}
	for u, w := range want {
		if math.Abs(res.Values[u]-w) > 1e-6*(1+math.Abs(w)) {
			t.Fatalf("node %d: δ=%g, want %g", u, res.Values[u], w)
		}
	}
}
