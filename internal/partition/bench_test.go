package partition

import (
	"runtime"
	"testing"

	"gluon/internal/generate"
)

// BenchmarkPartitionAll measures the whole host-local construction path
// (edge routing, proxy discovery, translation, CSR build) on rmat 16×16 for
// 4 hosts. allocs/op must stay a small constant independent of edge count.
func BenchmarkPartitionAll(b *testing.B) {
	cfg := generate.Config{Kind: "rmat", Scale: 16, EdgeFactor: 16, Seed: 7}
	edges, err := generate.Edges(cfg)
	if err != nil {
		b.Fatal(err)
	}
	numNodes := cfg.NumNodes()
	opt := Options{OutDegrees: make([]uint32, numNodes), InDegrees: make([]uint32, numNodes)}
	for _, e := range edges {
		opt.OutDegrees[e.Src]++
		opt.InDegrees[e.Dst]++
	}
	for _, kind := range []Kind{OEC, CVC, HVC} {
		b.Run(string(kind), func(b *testing.B) {
			pol, err := NewPolicy(kind, numNodes, 4, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PartitionAll(numNodes, edges, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPartitionAllAllocsIndependentOfEdgeCount: construction allocates per
// host and per worker, never per edge — an 8× larger edge list costs the
// same number of allocations.
func TestPartitionAllAllocsIndependentOfEdgeCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // both sizes then use two workers
	allocs := func(scale uint) float64 {
		cfg := generate.Config{Kind: "rmat", Scale: scale, EdgeFactor: 16, Seed: 7}
		edges, err := generate.Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := NewPolicy(CVC, cfg.NumNodes(), 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := PartitionAll(cfg.NumNodes(), edges, pol); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(13)
	if large > small+8 || large > 200 {
		t.Fatalf("allocs/op grew with the edge list: %.0f at scale 10, %.0f at scale 13", small, large)
	}
}
