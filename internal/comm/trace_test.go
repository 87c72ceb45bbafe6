package comm

import (
	"errors"
	"strings"
	"testing"

	"gluon/internal/trace"
)

// hasFault reports whether some fault event targets peer and mentions substr.
func hasFault(faults []trace.Event, peer int32, substr string) bool {
	for _, f := range faults {
		if f.Peer == peer && strings.Contains(f.Detail, substr) {
			return true
		}
	}
	return false
}

// collectPhase filters a snapshot to one phase.
func collectPhase(events []trace.Event, p trace.Phase) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Phase == p {
			out = append(out, e)
		}
	}
	return out
}

// TestInprocFrameTracing: the in-process endpoints emit one frame-send and
// one frame-recv instant per message, tagged with peer, tag, and length.
func TestInprocFrameTracing(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	tr := trace.New(trace.Config{})
	a.(TraceCarrier).SetTrace(tr.Recorder(0))
	b.(TraceCarrier).SetTrace(tr.Recorder(1))

	if err := a.Send(1, TagUser, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(0, TagUser); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, TagUser, []byte("any")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RecvAny(TagUser, []int{0}); err != nil {
		t.Fatal(err)
	}

	events, _ := tr.Snapshot()
	sends := collectPhase(events, trace.PhaseFrameSend)
	recvs := collectPhase(events, trace.PhaseFrameRecv)
	if len(sends) != 2 || len(recvs) != 2 {
		t.Fatalf("got %d frame-send / %d frame-recv events, want 2/2", len(sends), len(recvs))
	}
	if s := sends[0]; s.Host != 0 || s.Peer != 1 || s.Field != uint32(TagUser) || s.Value != 5 {
		t.Errorf("frame-send wrong: %+v", s)
	}
	if r := recvs[0]; r.Host != 1 || r.Peer != 0 || r.Value != 5 {
		t.Errorf("frame-recv wrong: %+v", r)
	}
}

// TestInprocFailPeerTracing: declaring a peer dead leaves a fault instant in
// the timeline.
func TestInprocFailPeerTracing(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	a := hub.Endpoint(0)
	tr := trace.New(trace.Config{})
	a.(TraceCarrier).SetTrace(tr.Recorder(0))

	a.(PeerFailer).FailPeer(1, errors.New("lost heartbeat"))
	events, _ := tr.Snapshot()
	faults := collectPhase(events, trace.PhaseFault)
	if len(faults) != 1 {
		t.Fatalf("got %d fault events, want 1", len(faults))
	}
	f := faults[0]
	if f.Peer != 1 || !strings.Contains(f.Detail, "peer declared dead") || !strings.Contains(f.Detail, "lost heartbeat") {
		t.Errorf("fault event wrong: %+v", f)
	}
}

// TestFaultTransportTracing: each injected fault kind (kill, delay,
// truncate) leaves a fault instant naming what was injected, and the
// recorder passes through to the wrapped endpoint's frame events.
func TestFaultTransportTracing(t *testing.T) {
	t.Run("kill", func(t *testing.T) {
		hub := NewHub(2)
		defer hub.Close()
		ft := NewFaultTransport(hub.Endpoint(0), FaultConfig{KillAfterSends: 1, KillPeer: 1})
		tr := trace.New(trace.Config{})
		ft.SetTrace(tr.Recorder(0))

		if err := ft.Send(1, TagUser, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := ft.Send(1, TagUser, []byte("dropped")); err == nil {
			t.Fatal("send past kill threshold succeeded")
		}
		// The injection is recorded, and so is the dead-peer declaration it
		// triggers on the wrapped endpoint — the whole cascade is visible.
		events, _ := tr.Snapshot()
		faults := collectPhase(events, trace.PhaseFault)
		if !hasFault(faults, 1, "injected kill after 1 sends") {
			t.Errorf("kill injection not recorded: %+v", faults)
		}
		if !hasFault(faults, 1, "peer declared dead") {
			t.Errorf("cascaded dead-peer declaration not recorded: %+v", faults)
		}
		// The surviving send crossed the wrapped endpoint with the same
		// recorder attached.
		if sends := collectPhase(events, trace.PhaseFrameSend); len(sends) != 1 {
			t.Errorf("got %d frame-send events through the wrapper, want 1", len(sends))
		}
	})

	t.Run("delay", func(t *testing.T) {
		hub := NewHub(2)
		defer hub.Close()
		ft := NewFaultTransport(hub.Endpoint(0), FaultConfig{DelayEvery: 2, Delay: 1})
		tr := trace.New(trace.Config{})
		ft.SetTrace(tr.Recorder(0))

		for i := 0; i < 4; i++ {
			if err := ft.Send(1, TagUser, []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
		events, _ := tr.Snapshot()
		faults := collectPhase(events, trace.PhaseFault)
		if len(faults) != 2 {
			t.Fatalf("got %d delay fault events, want 2", len(faults))
		}
		if !strings.Contains(faults[0].Detail, "injected delay") {
			t.Errorf("delay fault detail wrong: %+v", faults[0])
		}
	})

	t.Run("truncate", func(t *testing.T) {
		hub := NewHub(2)
		defer hub.Close()
		ft := NewFaultTransport(hub.Endpoint(1), FaultConfig{TruncateRecvAfter: 1})
		tr := trace.New(trace.Config{})
		ft.SetTrace(tr.Recorder(1))

		if err := hub.Endpoint(0).Send(1, TagUser, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		if _, err := ft.Recv(0, TagUser); !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("want ErrTruncatedFrame, got %v", err)
		}
		events, _ := tr.Snapshot()
		faults := collectPhase(events, trace.PhaseFault)
		if !hasFault(faults, 0, "injected truncated frame (6 bytes discarded)") {
			t.Errorf("truncate injection not recorded: %+v", faults)
		}
	})
}

// TestTCPFrameAndFaultTracing: the TCP endpoints emit the same frame
// instants and record poisonings, with the recorder attachable after the
// read loops are already running.
func TestTCPFrameAndFaultTracing(t *testing.T) {
	eps := dialMesh(t, 2)
	tr := trace.New(trace.Config{})
	for i, e := range eps {
		e.SetTrace(tr.Recorder(i))
	}
	if err := eps[0].Send(1, TagUser, []byte("wire")); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[1].Recv(0, TagUser); err != nil {
		t.Fatal(err)
	}
	eps[1].FailPeer(0, errors.New("gone"))
	events, _ := tr.Snapshot()
	sends := collectPhase(events, trace.PhaseFrameSend)
	recvs := collectPhase(events, trace.PhaseFrameRecv)
	if len(sends) != 1 || sends[0].Host != 0 || sends[0].Value != 4 {
		t.Errorf("tcp frame-send wrong: %+v", sends)
	}
	if len(recvs) != 1 || recvs[0].Host != 1 || recvs[0].Peer != 0 {
		t.Errorf("tcp frame-recv wrong: %+v", recvs)
	}
	// FailPeer records the declaration; severing the link may also surface a
	// poisoning from the read loop, so look for the declaration specifically.
	declared := false
	for _, f := range collectPhase(events, trace.PhaseFault) {
		if f.Peer == 0 && strings.Contains(f.Detail, "peer declared dead") {
			declared = true
		}
	}
	if !declared {
		t.Errorf("no dead-peer declaration fault event: %+v", events)
	}
}
