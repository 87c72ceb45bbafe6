package dsys_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gluon/internal/comm"
	"gluon/internal/trace"
)

// TestDoctorSmoke is the end-to-end flight-recorder acceptance run (the
// `make doctor-smoke` gate): a 3-host BSP job over a fault-injected
// transport dies mid-run with the recorder armed; the surviving process
// must leave postmortem bundles that gluon-trace doctor's library loads into a
// diagnosis naming the rank carrying the injected fault, the trigger, and
// the round.
func TestDoctorSmoke(t *testing.T) {
	const hosts = 3
	dir := t.TempDir()

	tr := trace.New(trace.Config{Capacity: 1 << 12, Label: "doctor-smoke"})
	fr := trace.NewFlightRecorder(trace.FlightConfig{Dir: dir, Trace: tr})
	fr.SetRunConfig("doctor-smoke: bfs over fault-injected hub")
	fr.SetPoolCounters(comm.PoolCounters)
	trace.Arm(fr)
	defer trace.Arm(nil)

	_, parts, source := faultParts(t, hosts)
	hub := comm.NewHub(hosts)
	defer hub.Close()
	ts := hub.Endpoints()
	// Host 1's link to host 0 dies after a handful of sends, mid-round.
	ts[1] = comm.NewFaultTransport(ts[1], comm.FaultConfig{KillAfterSends: 5, KillPeer: 0})

	// RunConfig.Trace is nil: dsys must adopt the armed recorder's session,
	// so the bundles carry a timeline even though the test never asked for
	// tracing explicitly.
	if err := runWithDeadline(t, 30*time.Second, parts, ts, source); err == nil {
		t.Fatal("fault-injected run succeeded; expected a peer failure")
	}

	bundles, bad, err := trace.LoadBundles(dir)
	if err != nil {
		t.Fatalf("LoadBundles: %v", err)
	}
	if len(bad) != 0 {
		t.Fatalf("corrupt bundles: %v", bad)
	}

	d := trace.Diagnose(bundles)
	if d.FailedRank != 1 {
		t.Errorf("diagnosis names rank %d, want 1 (the fault-injected host)", d.FailedRank)
	}
	if d.RootTrigger != trace.TriggerInjectedFault {
		t.Errorf("root trigger = %q, want %q", d.RootTrigger, trace.TriggerInjectedFault)
	}
	if d.RootRound < 0 {
		t.Errorf("diagnosis carries no failure round (RootRound = %d)", d.RootRound)
	}
	if len(d.Merged) == 0 {
		t.Error("diagnosis carries no merged timeline — dsys did not adopt the armed recorder's trace")
	}

	var buf bytes.Buffer
	d.WriteReport(&buf)
	out := buf.String()
	if !strings.Contains(out, "host 1 failed first") {
		t.Errorf("report does not name the failed rank:\n%s", out)
	}
	if !strings.Contains(out, string(trace.TriggerInjectedFault)) {
		t.Errorf("report does not name the trigger:\n%s", out)
	}
}
