package dsys_test

// Top smoke: the `make check` gate behind gluon-trace top. A traced in-process
// cluster ships its trace over the sideband while a programmatic live
// subscription (the same trace.AttachWatcher gluon-trace top uses) watches the
// collector. The gate asserts the dashboard's two load-bearing signals
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

	// Attach the viewer before the run so round progress streams in live.
	w, err := trace.AttachWatcher(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The first update is the snapshot. Take it before the run starts: the
	// watcher sheds its oldest queued update when the run's stream outpaces
	// this goroutine, and the snapshot is the oldest.
	select {
	case u, ok := <-w.Updates():
		if !ok || !u.Snapshot {
			t.Fatalf("first update is not the snapshot (open %v): %v", ok, w.Err())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("subscription never delivered its snapshot update")
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

	// The run is done; the shipper keeps flushing, so updates must converge
	// on: rounds observed, a verdict, per-host breakdowns, and an active
	// shipper session.
	deadline := time.After(30 * time.Second)
	var u trace.ViewUpdate
	for u.Stats.MaxRound < 1 || u.Verdict.Rounds < 1 || len(u.Hosts) == 0 || len(u.Sessions) == 0 {
		select {
		case nu, ok := <-w.Updates():
			if !ok {
				t.Fatalf("live subscription closed early: %v", w.Err())
			}
			u = nu
		case <-deadline:
			t.Fatalf("no converged live update: maxRound=%d verdictRounds=%d hosts=%d sessions=%d",
				u.Stats.MaxRound, u.Verdict.Rounds, len(u.Hosts), len(u.Sessions))
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
