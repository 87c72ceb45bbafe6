package dsys_test

// Top smoke: the `make check` gate behind gluon-trace top. A traced in-process
// cluster ships its trace over the sideband while a programmatic viewer (the
// same trace.Watcher gluon-trace top polls with) watches the collector. The gate asserts the dashboard's two load-bearing signals
// actually flow: nonzero round progress observed live, and a critical-path
// verdict emitted by the incremental attribution engine.

import (
	"testing"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/partition"
	"gluon/internal/trace"
)

func TestTopSmoke(t *testing.T) {
	const hosts = 3
	cfg := generate.Config{Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 42}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	numNodes := cfg.NumNodes()
	outDeg := make([]uint32, numNodes)
	inDeg := make([]uint32, numNodes)
	for _, e := range edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}

	col, err := trace.ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Attach the viewer before the run so round progress is observed live.
	w, err := trace.AttachWatcher(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if u, err := w.Poll(); err != nil || !u.Snapshot {
		t.Fatalf("first update is not the snapshot (%v): %+v", err, u)
	}

	tr := trace.New(trace.Config{Label: "top-smoke"})
	sh, err := trace.StartShipper(trace.ShipperConfig{
		Addr: col.Addr(), Trace: tr, Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	if _, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts:         hosts,
		Policy:        partition.CVC,
		Opt:           goldenOpt("osti"),
		PolicyOptions: partition.Options{OutDegrees: outDeg, InDegrees: inDeg},
		MaxRounds:     50,
		Trace:         tr,
	}, bfs.NewLigra(0, 1)); err != nil {
		t.Fatal(err)
	}

	// The run is done; the shipper keeps flushing, so polls must converge
	// on: rounds observed, a verdict, per-host breakdowns, and an active
	// shipper session.
	deadline := time.Now().Add(30 * time.Second)
	var u trace.ViewUpdate
	for u.MaxRound < 1 || u.Verdict.Rounds < 1 || len(u.Hosts) == 0 || len(u.Sessions) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no converged live update: maxRound=%d verdictRounds=%d hosts=%d sessions=%d",
				u.MaxRound, u.Verdict.Rounds, len(u.Hosts), len(u.Sessions))
		}
		time.Sleep(5 * time.Millisecond)
		if u, err = w.Poll(); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	if u.Verdict.String() == "no rounds attributed yet" {
		t.Errorf("verdict did not converge: %q", u.Verdict.String())
	}
	for _, r := range u.Rounds {
		if len(r.Hosts) == 0 {
			t.Errorf("round %d attributed with no hosts", r.Round)
		}
	}
	if u.Ledger.ShippedBytes == 0 || u.Ledger.BaselineBytes < u.Ledger.ShippedBytes {
		t.Errorf("ledger not live: shipped=%d baseline=%d", u.Ledger.ShippedBytes, u.Ledger.BaselineBytes)
	}
	if u.Sessions[0].State != "active" {
		t.Errorf("shipper session state = %q mid-run, want active", u.Sessions[0].State)
	}
}
