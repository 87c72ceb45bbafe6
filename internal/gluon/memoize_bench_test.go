package gluon

import (
	"sync"
	"testing"

	"gluon/internal/comm"
	"gluon/internal/generate"
	"gluon/internal/partition"
)

// BenchmarkMemoize measures one cluster-wide memoization exchange (§4.1):
// every host of a 4-host HVC partitioning of rmat 16×16 runs New at once.
func BenchmarkMemoize(b *testing.B) {
	cfg := generate.Config{Kind: "rmat", Scale: 16, EdgeFactor: 16, Seed: 7}
	edges, err := generate.Edges(cfg)
	if err != nil {
		b.Fatal(err)
	}
	numNodes := cfg.NumNodes()
	const hosts = 4
	pol, err := partition.NewPolicy(partition.HVC, numNodes, hosts, partition.Degrees(numNodes, edges))
	if err != nil {
		b.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		b.Fatal(err)
	}
	hub := comm.NewHub(hosts)
	b.Cleanup(hub.Close)
	b.Run("hvc-4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, hosts)
			for h := 0; h < hosts; h++ {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					_, errs[h] = New(parts[h], hub.Endpoint(h), Opt())
				}(h)
			}
			wg.Wait()
			for h, err := range errs {
				if err != nil {
					b.Fatalf("host %d: %v", h, err)
				}
			}
		}
	})
}
