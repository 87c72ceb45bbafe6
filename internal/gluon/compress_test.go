package gluon_test

import (
	"math"
	"testing"

	"gluon/internal/algorithms/pr"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// TestCompressionPreservesResults: a full pagerank with compression on
// matches the reference, and actually compressed something.
func TestCompressionPreservesResults(t *testing.T) {
	cfg := generate.Config{Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 52}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PageRank(g, pr.Alpha, 1e-9, 100)

	opt := gluon.Opt()
	opt.Compress = gluon.CompressAbove(256)
	res, err := dsys.Run(cfg.NumNodes(), edges, dsys.RunConfig{
		Hosts: 4, Policy: partition.CVC, Opt: opt,
		CollectValues: true, MaxRounds: 100,
	}, pr.NewGalois(1e-9, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Abs(res.Values[i]-w) > 1e-6 {
			t.Fatalf("node %d: %g, want %g", i, res.Values[i], w)
		}
	}
	var compressed, saved uint64
	for _, h := range res.Hosts {
		compressed += h.Gluon.CompressedMessages
		saved += h.Gluon.CompressionSaved
	}
	if compressed == 0 || saved == 0 {
		t.Fatalf("no compression happened: %d messages, %d saved", compressed, saved)
	}
	t.Logf("compressed %d messages, saved %d bytes", compressed, saved)
}

// TestCompressionReducesVolume: compression lowers the recorded wire bytes
// for a volume-heavy run.
func TestCompressionReducesVolume(t *testing.T) {
	cfg := generate.Config{Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 53}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(compress gluon.CompressPolicy) uint64 {
		opt := gluon.Opt()
		opt.Compress = compress
		res, err := dsys.Run(cfg.NumNodes(), edges, dsys.RunConfig{
			Hosts: 4, Policy: partition.CVC, Opt: opt, MaxRounds: 30,
		}, pr.NewGalois(1e-9, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCommBytes
	}
	plain := run(nil)
	packed := run(gluon.CompressAbove(256))
	if packed >= plain {
		t.Fatalf("compression did not reduce volume: %d vs %d", packed, plain)
	}
	t.Logf("volume %d → %d (%.1f%% saved)", plain, packed, 100*(1-float64(packed)/float64(plain)))
}
