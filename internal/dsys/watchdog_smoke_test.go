package dsys_test

// Watchdog smoke gate (`make watchdog-smoke`): a deliberately stalled host
// must be named — host ID and phase — by the watchdog before the BSP
// deadline fires, and a persisting stall must escalate through the
// PeerError path so the cluster terminates with the diagnosis attached
// instead of hanging.

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/trace"
)

// TestWatchdogNamesStalledHost wedges host 1 with FaultTransport delay
// injection (every send held far longer than a healthy round) and checks
// the whole detection pipeline: heartbeat gossip feeds the health table,
// the watchdog flags the overdue round naming host 1 in a non-waiting
// phase, the stall escalates after StallTimeout, and the run fails with a
// *comm.PeerError wrapping the *trace.StallError diagnosis. The report is
// the diagnosis; the evidence is the stall bundle the escalation freezes
// through the armed flight recorder: goroutine stacks and the suspect's
// spans, which gluon-trace doctor traces back to host 1.
func TestWatchdogNamesStalledHost(t *testing.T) {
	const hosts = 3
	// RunConfig.Trace stays nil, so the run adopts the armed recorder's
	// always-on session: that ring is where the stall bundle's spans come from.
	dir := t.TempDir()
	trace.Arm(trace.NewFlightRecorder(trace.FlightConfig{Dir: dir}))
	defer trace.Arm(nil)
	_, parts, source := faultParts(t, hosts)
	hub := comm.NewHub(hosts)
	defer hub.Close()
	ts := hub.Endpoints()
	// Host 1 stalls: every send — sync data and heartbeat gossip alike — is
	// held 500ms, far beyond the 100ms round floor below.
	ts[1] = comm.NewFaultTransport(ts[1], comm.FaultConfig{DelayEvery: 1, Delay: 500 * time.Millisecond})

	var mu sync.Mutex
	var reports []*trace.StallReport
	wcfg := &trace.WatchdogConfig{
		MinRound:     100 * time.Millisecond,
		Poll:         5 * time.Millisecond,
		StallTimeout: 250 * time.Millisecond,
		Log:          io.Discard,
		OnReport: func(r *trace.StallReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
		},
	}

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := dsys.RunWithTransports(parts, ts, dsys.RunConfig{
			Hosts: hosts, Policy: partition.CVC, Opt: gluon.Opt(), Watchdog: wcfg,
		}, bfs.NewGalois(uint64(source), 2))
		done <- outcome{err}
	}()
	var err error
	select {
	case o := <-done:
		err = o.err
	case <-time.After(30 * time.Second):
		t.Fatal("BSP run still blocked after 30s — the watchdog failed to unstick the cluster")
	}

	if err == nil {
		t.Fatal("run with a wedged host succeeded; the stall was never escalated")
	}
	var pe *comm.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("want *comm.PeerError, got %T: %v", err, err)
	}
	var se *trace.StallError
	if !errors.As(err, &se) {
		t.Fatalf("PeerError does not carry the *trace.StallError diagnosis: %v", err)
	}
	if se.Report.Suspect != 1 {
		t.Errorf("escalated diagnosis names host %d, stalled host is 1", se.Report.Suspect)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Fatal("watchdog raised no reports")
	}
	first := reports[0]
	if first.Suspect != 1 {
		t.Errorf("first report names host %d, stalled host is 1", first.Suspect)
	}
	// The suspect must be reported in the phase it is wedged in — a
	// non-waiting phase (it is stuck sending, not waiting for others).
	if first.Phase == trace.PhaseRecvWait || first.Phase == trace.PhaseBarrier {
		t.Errorf("suspect reported in waiting phase %q; a wedged sender is not a victim", first.Phase)
	}
	sawEscalation := false
	for _, r := range reports {
		if r.Escalated {
			sawEscalation = true
			if r.Suspect != 1 {
				t.Errorf("escalated report names host %d, want 1", r.Suspect)
			}
		}
	}
	if !sawEscalation {
		t.Error("no escalated report despite StallTimeout; run failed for another reason")
	}

	bundles, bad, err := trace.LoadBundles(dir)
	if err != nil || len(bad) != 0 {
		t.Fatalf("LoadBundles: err %v, corrupt %v", err, bad)
	}
	var stalls []*trace.Bundle
	for _, b := range bundles {
		if b.Trigger == trace.TriggerStall {
			stalls = append(stalls, b)
		}
	}
	if len(stalls) != 1 {
		t.Fatalf("escalation left %d stall bundles, want 1", len(stalls))
	}
	sb := stalls[0]
	if sb.Peer != 1 {
		t.Errorf("stall bundle names peer %d, stalled host is 1", sb.Peer)
	}
	if !strings.Contains(sb.Stacks, "goroutine") {
		t.Error("stall bundle carries no goroutine stacks")
	}
	suspectSpans := 0
	for _, e := range sb.Events {
		if e.Host == 1 && !e.Phase.Instant() {
			suspectSpans++
		}
	}
	if suspectSpans == 0 {
		t.Error("stall bundle carries none of host 1's spans")
	}
	d := trace.Diagnose(bundles)
	if d.FailedRank != 1 || d.RootTrigger != trace.TriggerStall {
		t.Errorf("doctor diagnosis: rank %d trigger %q, want rank 1 trigger %q", d.FailedRank, d.RootTrigger, trace.TriggerStall)
	}
}

// TestWatchdogQuietOnHealthyRun is the false-positive guard: a healthy
// cluster with the watchdog attached (default thresholds) completes with
// zero reports and an unchanged result.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	const hosts = 3
	_, parts, source := faultParts(t, hosts)
	hub := comm.NewHub(hosts)
	defer hub.Close()

	var mu sync.Mutex
	var reports []*trace.StallReport
	wcfg := &trace.WatchdogConfig{
		Poll: 5 * time.Millisecond,
		Log:  io.Discard,
		OnReport: func(r *trace.StallReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
		},
	}
	res, err := dsys.RunWithTransports(parts, hub.Endpoints(), dsys.RunConfig{
		Hosts: hosts, Policy: partition.CVC, Opt: gluon.Opt(), Watchdog: wcfg,
	}, bfs.NewGalois(uint64(source), 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("run made no rounds")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) != 0 {
		t.Fatalf("healthy run raised %d stall reports; first: %v", len(reports), reports[0])
	}
}

// TestWatchdogLeavesRunUnperturbed: in a run whose hosts all share one
// process the watchdog reads every heartbeat from the hosts' recorders, so
// attaching it sends nothing. The same traced run with and without a
// watchdog moves the same messages and bytes on every endpoint, and the
// watched run's trace holds no heartbeat frame.
func TestWatchdogLeavesRunUnperturbed(t *testing.T) {
	const hosts = 3
	_, parts, source := faultParts(t, hosts)
	run := func(wcfg *trace.WatchdogConfig) ([]comm.Stats, []trace.Event) {
		hub := comm.NewHub(hosts)
		defer hub.Close()
		tr := trace.New(trace.Config{})
		ts := hub.Endpoints()
		if _, err := dsys.RunWithTransports(parts, ts, dsys.RunConfig{
			Hosts: hosts, Policy: partition.CVC, Opt: gluon.Opt(), Trace: tr, Watchdog: wcfg,
		}, bfs.NewGalois(uint64(source), 2)); err != nil {
			t.Fatal(err)
		}
		stats := make([]comm.Stats, hosts)
		for h, ep := range ts {
			stats[h] = ep.Stats()
		}
		events, _ := tr.Snapshot()
		return stats, events
	}
	plain, _ := run(nil)
	watched, events := run(&trace.WatchdogConfig{Poll: time.Millisecond, Log: io.Discard})
	for h := range plain {
		if plain[h] != watched[h] {
			t.Errorf("host %d: comm.Stats %+v with the watchdog, %+v without", h, watched[h], plain[h])
		}
	}
	for _, e := range events {
		if (e.Phase == trace.PhaseFrameSend || e.Phase == trace.PhaseFrameRecv) && e.Field == uint32(comm.TagHeartbeat) {
			t.Fatalf("watched run traced a heartbeat frame: %+v", e)
		}
	}
}

// TestWatchdogGossipAcrossProcesses: three hosts over a loopback TCP mesh,
// each driven by its own RunSingle with its own trace and watchdog, as three
// processes would be. Host 1 is wedged as in TestWatchdogNamesStalledHost,
// and its own watchdog only warns, so the escalation that ends the run comes
// from a healthy host, which knows host 1 only from its gossip: one of them
// must name host 1 in a non-waiting phase and fail with a *comm.PeerError
// carrying the *trace.StallError.
func TestWatchdogGossipAcrossProcesses(t *testing.T) {
	const hosts = 3
	_, parts, source := faultParts(t, hosts)
	ts, _ := tcpMesh(t, hosts)
	ts[1] = comm.NewFaultTransport(ts[1], comm.FaultConfig{DelayEvery: 1, Delay: 500 * time.Millisecond})

	var mu sync.Mutex
	reports := make([][]*trace.StallReport, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			stallTimeout := 250 * time.Millisecond
			if h == 1 {
				stallTimeout = 0 // warn only
			}
			_, errs[h] = dsys.RunSingle(parts[h], ts[h], dsys.RunConfig{
				Hosts: hosts, Policy: partition.CVC, Opt: gluon.Opt(),
				Trace: trace.New(trace.Config{}),
				Watchdog: &trace.WatchdogConfig{
					MinRound:     100 * time.Millisecond,
					Poll:         5 * time.Millisecond,
					StallTimeout: stallTimeout,
					Log:          io.Discard,
					OnReport: func(r *trace.StallReport) {
						mu.Lock()
						reports[h] = append(reports[h], r)
						mu.Unlock()
					},
				},
			}, bfs.NewGalois(uint64(source), 2))
		}(h)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a RunSingle still blocked after 30s — the gossiped stall was never escalated")
	}

	mu.Lock()
	defer mu.Unlock()
	for _, h := range []int{0, 2} {
		if len(reports[h]) == 0 {
			continue
		}
		first := reports[h][0]
		if first.Suspect != 1 || first.Phase == trace.PhaseRecvWait || first.Phase == trace.PhaseBarrier {
			t.Errorf("host %d's first report names host %d in phase %q, want host 1 in a non-waiting phase", h, first.Suspect, first.Phase)
			continue
		}
		var pe *comm.PeerError
		var se *trace.StallError
		if errors.As(errs[h], &pe) && errors.As(errs[h], &se) && se.Report.Suspect == 1 {
			return
		}
	}
	t.Fatalf("no healthy host escalated a diagnosis of host 1 (errors %v; report counts %d, %d, %d)",
		errs, len(reports[0]), len(reports[1]), len(reports[2]))
}
