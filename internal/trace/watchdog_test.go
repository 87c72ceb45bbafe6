package trace

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSuspectHost(t *testing.T) {
	cases := []struct {
		name string
		hbs  []Heartbeat
		want int32
	}{
		{"empty", nil, -1},
		{
			// Host stuck in encode while the others wait for it.
			"waiters-are-victims",
			[]Heartbeat{
				{Host: 0, Round: 6, Phase: PhaseRecvWait},
				{Host: 1, Round: 6, Phase: PhaseEncode},
				{Host: 2, Round: 6, Phase: PhaseBarrier},
			},
			1,
		},
		{
			// A host a round behind is the straggler even if it is waiting.
			"min-round-first",
			[]Heartbeat{
				{Host: 0, Round: 7, Phase: PhaseRecvWait},
				{Host: 1, Round: 6, Phase: PhaseRecvWait},
				{Host: 2, Round: 7, Phase: PhaseCompute},
			},
			1,
		},
		{
			// Everyone waiting: the host that went quiet first.
			"oldest-beat-breaks-ties",
			[]Heartbeat{
				{Host: 0, Round: 3, Phase: PhaseRecvWait, BeatNs: 900},
				{Host: 1, Round: 3, Phase: PhaseBarrier, BeatNs: 100},
				{Host: 2, Round: 3, Phase: PhaseRecvWait, BeatNs: 500},
			},
			1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := SuspectHost(c.hbs).Host; got != c.want {
				t.Fatalf("suspect = %d, want %d", got, c.want)
			}
		})
	}
}

// TestHealthOneWriterPerHost: a local host is read from its recorder at
// every Snapshot, and a remote host's slot takes each update in the order
// its one link delivers it, a rollback to a smaller round included.
func TestHealthOneWriterPerHost(t *testing.T) {
	tr := New(Config{Capacity: 16})
	rec := tr.Recorder(0)
	h := NewHealth(nil, rec)
	rec.SetRound(3)
	h.Update(Heartbeat{Host: 1, Round: 5, Phase: PhaseCompute, BeatNs: 100})
	if snap := h.Snapshot(); len(snap) != 2 || snap[0].Host != 0 || snap[0].Round != 3 || snap[1].Round != 5 {
		t.Fatalf("snapshot = %+v, want host 0 at round 3 and host 1 at round 5", snap)
	}
	rec.SetRound(4)
	h.Update(Heartbeat{Host: 1, Round: 2, Phase: PhaseEncode, BeatNs: 200}) // rolled back
	if snap := h.Snapshot(); snap[0].Round != 4 || snap[1].Round != 2 || snap[1].Phase != PhaseEncode {
		t.Fatalf("snapshot = %+v, want host 0 read at round 4 and host 1's rollback to round 2", snap)
	}
}

// TestWatchdogFlagsStall drives a synthetic cluster: fast rounds build the
// trailing median, then host 1 stops in encode while the others park in
// recvwait. The watchdog must name host 1 and its phase, then escalate.
func TestWatchdogFlagsStall(t *testing.T) {
	var clock atomic.Int64
	h := NewHealth(func() int64 { return clock.Load() })
	reports := make(chan *StallReport, 4)
	w := StartWatchdog(h, WatchdogConfig{
		Factor:       4,
		MinRound:     10 * time.Millisecond,
		Poll:         time.Millisecond,
		StallTimeout: 20 * time.Millisecond,
		OnReport:     func(r *StallReport) { reports <- r },
	})
	defer w.Stop()

	beat := func(host, round int32, p Phase) {
		h.Update(Heartbeat{Host: host, Round: round, Phase: p, BeatNs: clock.Load()})
	}
	// Rounds 0..4 complete briskly (2ms of synthetic time each).
	for round := int32(0); round < 5; round++ {
		for host := int32(0); host < 3; host++ {
			beat(host, round, PhaseCompute)
		}
		for i := 0; i < 2; i++ {
			clock.Add(int64(time.Millisecond))
			time.Sleep(2 * time.Millisecond) // let the poller observe the round
		}
	}
	// Round 5: host 1 wedges in encode, hosts 0 and 2 wait on it.
	beat(0, 5, PhaseRecvWait)
	beat(1, 5, PhaseEncode)
	beat(2, 5, PhaseRecvWait)
	deadline := time.After(5 * time.Second)
	for i := 0; ; i++ {
		clock.Add(int64(5 * time.Millisecond))
		select {
		case r := <-reports:
			if r.Suspect != 1 || r.Phase != PhaseEncode {
				t.Fatalf("report names host %d phase %v, want host 1 phase encode", r.Suspect, r.Phase)
			}
			if r.Round != 5 {
				t.Fatalf("report round = %d, want 5", r.Round)
			}
			if r.Escalated {
				t.Fatal("first report must not be escalated")
			}
			if r.Median <= 0 || r.Threshold < 4*r.Median {
				t.Fatalf("threshold %v should derive from median %v", r.Threshold, r.Median)
			}
			goto escalation
		case <-deadline:
			t.Fatal("watchdog never flagged the stall")
		default:
			time.Sleep(time.Millisecond)
		}
	}
escalation:
	deadline = time.After(5 * time.Second)
	for {
		clock.Add(int64(5 * time.Millisecond))
		select {
		case r := <-reports:
			if !r.Escalated {
				t.Fatalf("second report should be the escalation, got %+v", r)
			}
			err := &StallError{Report: r}
			if !strings.Contains(err.Error(), "suspect host 1") || !strings.Contains(err.Error(), `"encode"`) {
				t.Fatalf("StallError should name host and phase: %q", err.Error())
			}
			return
		case <-deadline:
			t.Fatal("watchdog never escalated")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWatchdogSuspendedNeverReports: a wedged-looking cluster inside a
// declared quiet window (checkpoint barrier, rejoin rendezvous) must not be
// flagged or escalated — suspension pauses stall tracking entirely, and
// resuming restarts the round timer from scratch instead of charging the
// suspended time to the current round.
func TestWatchdogSuspendedNeverReports(t *testing.T) {
	var clock atomic.Int64
	h := NewHealth(func() int64 { return clock.Load() })
	reports := make(chan *StallReport, 4)
	w := StartWatchdog(h, WatchdogConfig{
		Factor:       4,
		MinRound:     10 * time.Millisecond,
		Poll:         time.Millisecond,
		StallTimeout: 20 * time.Millisecond,
		OnReport:     func(r *StallReport) { reports <- r },
	})
	defer w.Stop()

	beat := func(host, round int32, p Phase) {
		h.Update(Heartbeat{Host: host, Round: round, Phase: p, BeatNs: clock.Load()})
	}
	// Fast rounds build a small trailing median.
	for round := int32(0); round < 5; round++ {
		for host := int32(0); host < 3; host++ {
			beat(host, round, PhaseCompute)
		}
		clock.Add(int64(2 * time.Millisecond))
		time.Sleep(3 * time.Millisecond)
	}
	// Suspension nests: two overlapping windows (a checkpoint barrier on
	// one local host, a rendezvous on another).
	w.Suspend()
	w.Suspend()
	w.Resume()
	// The cluster now looks wedged for far longer than threshold+timeout.
	beat(0, 5, PhaseRecvWait)
	beat(1, 5, PhaseEncode)
	beat(2, 5, PhaseRecvWait)
	for i := 0; i < 40; i++ {
		clock.Add(int64(10 * time.Millisecond))
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-reports:
		t.Fatalf("suspended watchdog reported a stall: %+v", r)
	default:
	}
	// After a rollback the hosts report smaller rounds; each slot takes
	// them from its one writer.
	w.Resume()
	beat(0, 2, PhaseCompute)
	if snap := h.Snapshot(); len(snap) != 3 || snap[0].Round != 2 {
		t.Fatalf("rollback heartbeat not accepted: %+v", snap)
	}
	// Resumed and genuinely stalled: the watchdog must report again.
	beat(0, 2, PhaseRecvWait)
	beat(1, 2, PhaseEncode)
	beat(2, 2, PhaseRecvWait)
	deadline := time.After(5 * time.Second)
	for {
		clock.Add(int64(5 * time.Millisecond))
		select {
		case r := <-reports:
			if r.Suspect != 1 {
				t.Fatalf("post-resume report names host %d, want 1", r.Suspect)
			}
			return
		case <-deadline:
			t.Fatal("resumed watchdog never reported a real stall")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWatchdogQuietOnProgress: rounds that keep advancing within the
// threshold never produce a report.
func TestWatchdogQuietOnProgress(t *testing.T) {
	var clock atomic.Int64
	h := NewHealth(func() int64 { return clock.Load() })
	var reports atomic.Int32
	w := StartWatchdog(h, WatchdogConfig{Factor: 8, MinRound: 50 * time.Millisecond, Poll: time.Millisecond,
		OnReport: func(*StallReport) { reports.Add(1) }})
	for round := int32(0); round < 10; round++ {
		h.Update(Heartbeat{Host: 0, Round: round, Phase: PhaseCompute, BeatNs: clock.Load()})
		h.Update(Heartbeat{Host: 1, Round: round, Phase: PhaseSync, BeatNs: clock.Load()})
		clock.Add(int64(2 * time.Millisecond))
		time.Sleep(2 * time.Millisecond)
	}
	w.Stop()
	if n := reports.Load(); n != 0 {
		t.Fatalf("healthy cluster produced %d stall reports", n)
	}
}
