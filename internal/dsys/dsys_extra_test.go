package dsys_test

import (
	"testing"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// TestRunOverTCP: the full distributed system over real sockets produces
// the same results as over the in-process hub.
func TestRunOverTCP(t *testing.T) {
	const hosts = 3
	numNodes, edges, g := testGraph(t, 9, false)
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)

	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts, partition.Degrees(numNodes, edges))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}

	eps := tcpTransports(t, hosts)
	res, err := dsys.RunWithTransports(parts, eps, dsys.RunConfig{
		Hosts: hosts, Policy: partition.CVC, Opt: gluon.Opt(), CollectValues: true,
	}, bfs.NewGalois(uint64(source), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if float64(w) != res.Values[i] {
			t.Fatalf("node %d: got %v, want %d", i, res.Values[i], w)
		}
	}
}

// TestGaloisFewerRoundsThanLigra: on a high-diameter graph, the
// asynchronous engine propagates updates within a host in a single round,
// so it needs far fewer BSP rounds than the level-synchronous engine — the
// effect the paper reports in §5.4 ("D-Ligra has 2-4x more rounds").
func TestGaloisFewerRoundsThanLigra(t *testing.T) {
	cfg := generate.Config{Kind: "chain", Scale: 10, EdgeFactor: 1, Seed: 1}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(factory dsys.ProgramFactory) *dsys.Result {
		res, err := dsys.Run(cfg.NumNodes(), edges, dsys.RunConfig{
			Hosts: 4, Policy: partition.OEC, Opt: gluon.Opt(), CollectValues: true,
		}, factory)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lig := run(bfs.NewLigra(0, 2))
	gal := run(bfs.NewGalois(0, 2))

	// Both must be correct.
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.BFS(g, 0)
	for i, w := range want {
		if float64(w) != lig.Values[i] || float64(w) != gal.Values[i] {
			t.Fatalf("node %d wrong: ligra %v galois %v want %d", i, lig.Values[i], gal.Values[i], w)
		}
	}
	// A 1024-node chain over 4 hosts: level-sync needs ~one round per hop
	// (~1023); async needs ~one round per host boundary (~4).
	if gal.Rounds*10 > lig.Rounds {
		t.Fatalf("galois rounds %d not ≪ ligra rounds %d", gal.Rounds, lig.Rounds)
	}
}

// TestNetModelSlowsVolume: under a modeled link, a run that moves more
// bytes takes proportionally longer — the mechanism timing experiments
// rely on.
func TestNetModelSlowsVolume(t *testing.T) {
	numNodes, edges, g := testGraph(t, 10, false)
	run := func(net comm.NetModel) *dsys.Result {
		res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
			Hosts: 4, Policy: partition.CVC, Opt: gluon.Opt(),
			MaxRounds: 10, Net: net,
		}, bfs.NewGalois(uint64(g.MaxOutDegreeNode()), 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(comm.NetModel{})
	slow := run(comm.NetModel{Latency: 2 * time.Millisecond})
	if slow.Time < fast.Time+10*time.Millisecond {
		t.Fatalf("modeled run %v not slower than unmodeled %v", slow.Time, fast.Time)
	}
}

// TestLoadImbalanceMetric sanity-checks the §5.4 imbalance estimate.
func TestLoadImbalanceMetric(t *testing.T) {
	numNodes, edges, g := testGraph(t, 9, false)
	res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts: 4, Policy: partition.OEC, Opt: gluon.Opt(),
	}, bfs.NewGalois(uint64(g.MaxOutDegreeNode()), 2))
	if err != nil {
		t.Fatal(err)
	}
	if li := res.LoadImbalance(); li < 1 {
		t.Fatalf("imbalance %f < 1", li)
	}
	empty := &dsys.Result{}
	if empty.LoadImbalance() != 1 {
		t.Fatal("empty imbalance")
	}
}

// TestHostResultsPopulated: per-host measurements carry rounds, times and
// Gluon stats.
func TestHostResultsPopulated(t *testing.T) {
	numNodes, edges, g := testGraph(t, 9, false)
	res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts: 3, Policy: partition.HVC, Opt: gluon.Opt(),
	}, bfs.NewGalois(uint64(g.MaxOutDegreeNode()), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 3 {
		t.Fatalf("%d host results", len(res.Hosts))
	}
	var sent uint64
	for _, h := range res.Hosts {
		if h.Rounds == 0 {
			t.Fatalf("host %d: zero rounds", h.Host)
		}
		sent += h.Gluon.BytesSent()
	}
	if sent != res.TotalCommBytes {
		t.Fatalf("per-host bytes %d != total %d", sent, res.TotalCommBytes)
	}
	if res.TotalCommBytes == 0 {
		t.Fatal("no communication recorded")
	}
}
