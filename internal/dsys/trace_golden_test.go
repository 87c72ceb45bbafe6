package dsys_test

// Trace golden tests: the observability layer must agree exactly with the
// substrate's own accounting. Encode spans carry per-message byte tags
// (value / metadata / GID split) snapshotted from the worker's Stats deltas,
// so summing them over a whole run must reproduce gluon.Stats and the
// golden-volume numbers byte for byte — if these drift, the trace is lying
// about what went on the wire.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/trace"
)

// traceEncodeTotals folds every encode span of a snapshot.
type traceEncodeTotals struct {
	spans      uint64
	value      uint64
	meta       uint64
	gid        uint64
	modes      [trace.NumModes]uint64
	frameSends uint64
}

func foldEncodeSpans(events []trace.Event) traceEncodeTotals {
	var tot traceEncodeTotals
	for _, e := range events {
		switch e.Phase {
		case trace.PhaseEncode:
			tot.spans++
			tot.value += e.Value
			tot.meta += e.Meta
			tot.gid += e.GID
			if e.Mode >= 0 && int(e.Mode) < trace.NumModes {
				tot.modes[e.Mode]++
			}
		case trace.PhaseFrameSend:
			tot.frameSends++
		}
	}
	return tot
}

// TestTraceMatchesGoldenVolumes replays the bfs/cvc/osti golden-volume row
// (8 hosts, rmat scale 10) with tracing attached and checks the trace
// against the pinned numbers: one encode span per message, byte tags
// summing to the golden volume, and the golden encoding-mode histogram.
func TestTraceMatchesGoldenVolumes(t *testing.T) {
	const golden = 3 // goldenRows index of bfs/cvc/osti
	row := goldenRows[golden]
	if row.alg != "bfs" || row.policy != partition.CVC || row.config != "osti" {
		t.Fatalf("goldenRows[%d] is %s/%s/%s, want bfs/cvc/osti", golden, row.alg, row.policy, row.config)
	}

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

	tr := trace.New(trace.Config{Label: "golden"})
	res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts:         8,
		Policy:        row.policy,
		Opt:           goldenOpt(row.config),
		PolicyOptions: partition.Options{OutDegrees: outDeg, InDegrees: inDeg},
		MaxRounds:     50,
		Trace:         tr,
	}, bfs.NewLigra(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != row.rounds {
		t.Fatalf("rounds = %d, golden %d (fixture drifted; trace assertions would be meaningless)", res.Rounds, row.rounds)
	}

	events, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d events; raise trace.Config.Capacity for this test", dropped)
	}
	tot := foldEncodeSpans(events)
	if tot.spans != row.msgs {
		t.Errorf("encode spans = %d, golden messages %d", tot.spans, row.msgs)
	}
	if got := tot.value + tot.meta + tot.gid; got != row.bytes {
		t.Errorf("encode byte tags sum to %d, golden volume %d", got, row.bytes)
	}
	if tot.modes != row.modes {
		t.Errorf("encode mode histogram = %v, golden %v", tot.modes, row.modes)
	}
	// Every sync message crosses the transport, so the frame-level send
	// instants must cover at least the sync messages (termination-detection
	// frames ride the same transport and add more).
	if tot.frameSends < row.msgs {
		t.Errorf("frame-send instants = %d, want >= %d sync messages", tot.frameSends, row.msgs)
	}

	// The analyzer must agree with the raw fold.
	s := trace.SummarizeMeta(trace.Meta{Label: "golden", Dropped: dropped}, events)
	if s.Messages != row.msgs {
		t.Errorf("Summarize messages = %d, golden %d", s.Messages, row.msgs)
	}
	if s.TotalBytes() != row.bytes {
		t.Errorf("Summarize total bytes = %d, golden %d", s.TotalBytes(), row.bytes)
	}
	if s.Modes != row.modes {
		t.Errorf("Summarize modes = %v, golden %v", s.Modes, row.modes)
	}
	// Rounds: -1 (memoization) may appear; rounds 0..rounds-1 must.
	seen := map[int32]bool{}
	for _, r := range s.Rounds {
		seen[r.Round] = true
	}
	for r := int32(0); r < int32(row.rounds); r++ {
		if !seen[r] {
			t.Errorf("round %d missing from Summarize round table", r)
		}
	}
}

// TestTraceSumsEqualStats runs a 2-host BFS with full optimizations and
// checks that the trace's summed encode tags equal the substrates' own
// aggregated Stats exactly — the acceptance bar for the byte accounting.
func TestTraceSumsEqualStats(t *testing.T) {
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

	tr := trace.New(trace.Config{Label: "stats-equality"})
	res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts:         2,
		Policy:        partition.CVC,
		Opt:           gluon.Opt(),
		PolicyOptions: partition.Options{OutDegrees: outDeg, InDegrees: inDeg},
		MaxRounds:     50,
		Trace:         tr,
	}, bfs.NewLigra(0, 1))
	if err != nil {
		t.Fatal(err)
	}

	var value, meta, gid, msgs uint64
	var modes [trace.NumModes]uint64
	for _, h := range res.Hosts {
		value += h.Gluon.ValueBytes
		meta += h.Gluon.MetadataBytes
		gid += h.Gluon.GIDBytes
		msgs += h.Gluon.MessagesSent
		for i := range modes {
			modes[i] += h.Gluon.ModeCounts[i]
		}
	}

	events, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d events", dropped)
	}
	tot := foldEncodeSpans(events)
	if tot.spans != msgs {
		t.Errorf("encode spans = %d, Stats.MessagesSent = %d", tot.spans, msgs)
	}
	if tot.value != value {
		t.Errorf("trace value bytes = %d, Stats.ValueBytes = %d", tot.value, value)
	}
	if tot.meta != meta {
		t.Errorf("trace metadata bytes = %d, Stats.MetadataBytes = %d", tot.meta, meta)
	}
	if tot.gid != gid {
		t.Errorf("trace GID bytes = %d, Stats.GIDBytes = %d", tot.gid, gid)
	}
	if tot.modes != modes {
		t.Errorf("trace mode histogram = %v, Stats.ModeCounts = %v", tot.modes, modes)
	}
}

// TestSidebandMergedMatchesGoldenVolumes is the collection-plane golden
// test: the bfs/cvc/osti fixture run as a process-equivalent TCP cluster —
// every rank driven by its own dsys.RunSingle with its own Trace session
// and its own sideband Shipper, exactly as separate OS processes would —
// collected by one Collector and merged onto the collector's clock. The
// merged timeline's per-round encode byte sums must reproduce the pinned
// golden volumes byte for byte: clock alignment and incremental flushing
// may reorder and rebase events, never lose or distort them.
func TestSidebandMergedMatchesGoldenVolumes(t *testing.T) {
	const golden = 3 // goldenRows index of bfs/cvc/osti
	row := goldenRows[golden]
	if row.alg != "bfs" || row.policy != partition.CVC || row.config != "osti" {
		t.Fatalf("goldenRows[%d] is %s/%s/%s, want bfs/cvc/osti", golden, row.alg, row.policy, row.config)
	}
	const hosts = 8

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
	pol, err := partition.NewPolicy(row.policy, numNodes, hosts,
		partition.Options{OutDegrees: outDeg, InDegrees: inDeg})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}

	col, err := trace.ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ts := tcpTransports(t, hosts)

	// One driver per rank, each with a private trace session shipped over
	// the sideband — the process-equivalence boundary.
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			tr := trace.New(trace.Config{Label: fmt.Sprintf("golden rank %d", h)})
			sh, err := trace.StartShipper(trace.ShipperConfig{
				Addr: col.Addr(), Trace: tr, Interval: 20 * time.Millisecond,
			})
			if err != nil {
				errs[h] = err
				return
			}
			_, err = dsys.RunSingle(parts[h], ts[h], dsys.RunConfig{
				Hosts:     hosts,
				Policy:    row.policy,
				Opt:       goldenOpt(row.config),
				MaxRounds: 50,
				Trace:     tr,
			}, bfs.NewLigra(0, 1))
			if cerr := sh.Close(); err == nil {
				err = cerr
			}
			errs[h] = err
		}(h)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("process-equivalent cluster still running after 60s")
	}
	for h, err := range errs {
		if err != nil {
			for _, cerr := range col.Errs() {
				t.Logf("collector session error: %v", cerr)
			}
			t.Fatalf("rank %d: %v", h, err)
		}
	}

	// Every shipper sent its bye; wait for the collector to finish the
	// session bookkeeping before merging.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, completed := col.Sessions(); completed >= hosts {
			break
		}
		if time.Now().After(deadline) {
			_, completed := col.Sessions()
			t.Fatalf("only %d of %d sideband sessions completed", completed, hosts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	col.Close()
	for _, err := range col.Errs() {
		t.Errorf("sideband session error: %v", err)
	}

	events, meta := col.Merged()
	if meta.Dropped != 0 {
		t.Fatalf("merged trace dropped %d events; golden sums would undercount", meta.Dropped)
	}
	if len(meta.Clocks) != hosts {
		t.Fatalf("merged trace carries %d clock entries, want %d", len(meta.Clocks), hosts)
	}
	for _, ci := range meta.Clocks {
		if ci.Samples == 0 {
			t.Errorf("host %d clock offset has no samples", ci.Host)
		}
	}
	// The merge must put everything on one axis, sorted.
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatalf("merged events not sorted at %d: %d after %d", i, events[i].Start, events[i-1].Start)
		}
	}

	// Per-round byte sums across all collected sessions must reproduce the
	// pinned golden volumes exactly.
	tot := foldEncodeSpans(events)
	if tot.spans != row.msgs {
		t.Errorf("merged encode spans = %d, golden messages %d", tot.spans, row.msgs)
	}
	if got := tot.value + tot.meta + tot.gid; got != row.bytes {
		t.Errorf("merged encode byte tags sum to %d, golden volume %d", got, row.bytes)
	}
	if tot.modes != row.modes {
		t.Errorf("merged encode mode histogram = %v, golden %v", tot.modes, row.modes)
	}
	perRound := map[int32]uint64{}
	for _, e := range events {
		if e.Phase == trace.PhaseEncode {
			perRound[e.Round] += e.Value + e.Meta + e.GID
		}
	}
	var roundSum uint64
	for r, b := range perRound {
		if r >= int32(row.rounds) {
			t.Errorf("encode bytes recorded for round %d beyond golden %d rounds", r, row.rounds)
		}
		roundSum += b
	}
	if roundSum != row.bytes {
		t.Errorf("per-round byte sums total %d, golden volume %d", roundSum, row.bytes)
	}

	// The analyzer over the merged trace agrees with the raw fold.
	s := trace.SummarizeMeta(meta, events)
	if s.Messages != row.msgs {
		t.Errorf("SummarizeMeta messages = %d, golden %d", s.Messages, row.msgs)
	}
	if s.TotalBytes() != row.bytes {
		t.Errorf("SummarizeMeta total bytes = %d, golden %d", s.TotalBytes(), row.bytes)
	}
}
