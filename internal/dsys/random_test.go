package dsys_test

import (
	"fmt"
	"testing"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// TestRandomizedConfigurations sweeps a deterministic pseudo-random corpus
// of (graph kind, scale, seed, policy, hosts, optimization) configurations
// — fuzzing-lite over the whole stack, catching interactions the
// structured matrices might miss.
func TestRandomizedConfigurations(t *testing.T) {
	kinds := []string{"rmat", "webcrawl", "random", "grid"}
	policies := partition.AllKinds()
	opts := []gluon.Options{
		gluon.Opt(),
		gluon.Unopt(),
		{StructuralInvariants: true},
		{TemporalInvariance: true},
		{TemporalInvariance: true, ForceEncoding: gluon.EncodingBitvec},
	}
	// Simple deterministic LCG over the corpus index.
	next := uint64(0x9e3779b97f4a7c15)
	rnd := func(n int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(n))
	}
	for trial := 0; trial < 12; trial++ {
		kind := kinds[rnd(len(kinds))]
		scale := uint(6 + rnd(4))
		hosts := 1 + rnd(7)
		pol := policies[rnd(len(policies))]
		opt := opts[rnd(len(opts))]
		seed := uint64(rnd(1000))
		name := fmt.Sprintf("t%d-%s-s%d-h%d-%s", trial, kind, scale, hosts, pol)
		t.Run(name, func(t *testing.T) {
			cfg := generate.Config{Kind: kind, Scale: scale, EdgeFactor: 6, Seed: seed}
			edges, err := generate.Edges(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
			if err != nil {
				t.Fatal(err)
			}
			source := g.MaxOutDegreeNode()
			want := ref.BFS(g, source)
			res, err := dsys.Run(cfg.NumNodes(), edges, dsys.RunConfig{
				Hosts: hosts, Policy: pol, Opt: opt, CollectValues: true,
			}, bfs.NewGalois(uint64(source), 2))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for u, w := range want {
				if float64(w) != res.Values[u] {
					t.Fatalf("node %d: %v, want %d", u, res.Values[u], w)
				}
			}
		})
	}
}
