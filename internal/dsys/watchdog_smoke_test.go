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
