package trace

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"
)

// emitLiveRound drives one recorder through a full BSP round shape the
// attribution engine understands: compute, sync (with one encode message
// inside), then the termination barrier.
func emitLiveRound(r *Recorder, round int32, base int64) {
	r.SetRound(round)
	r.Emit(Event{Start: base, Dur: 100, Phase: PhaseCompute, Peer: -1})
	r.Emit(Event{Start: base + 100, Dur: 60, Phase: PhaseSync, Peer: -1})
	r.Emit(Event{Start: base + 100, Dur: 40, Phase: PhaseEncode, Peer: (r.Host() + 1) % 4, Value: 64, Mode: 1, Lane: 1})
	r.Emit(Event{Start: base + 160, Dur: 40, Phase: PhaseBarrier, Peer: -1, Detail: "termination"})
}

// pollUntil polls w until done holds for the latest update, checking that
// Seq never goes backwards and that only the first reply is the snapshot.
func pollUntil(t *testing.T, w *Watcher, u *ViewUpdate, what string, done func(*ViewUpdate) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !done(u) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %d rounds, max round %d", what, len(u.Rounds), u.MaxRound)
		}
		time.Sleep(2 * time.Millisecond)
		nu, err := w.Poll()
		if err != nil {
			t.Fatalf("poll while waiting for %s: %v", what, err)
		}
		if nu.Seq < u.Seq {
			t.Fatalf("seq went backwards: %d after %d", nu.Seq, u.Seq)
		}
		if nu.Snapshot {
			t.Fatal("snapshot flag on a reply after the first")
		}
		*u = nu
	}
}

// TestLiveWatcherMidRunAttach attaches a watcher to a collector mid-run and
// checks the protocol's core promise: the first reply is a consistent
// snapshot of everything attributed so far, and later polls see the run
// advance.
func TestLiveWatcherMidRunAttach(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	tr := New(Config{Capacity: 1 << 12, Label: "live-attach"})
	rec := tr.Recorder(0)
	// Rounds 0..4 before the watcher exists; rounds 0..3 are attributable
	// (round 4 stays open until the host moves past it).
	for r := int32(0); r <= 4; r++ {
		emitLiveRound(rec, r, int64(r)*1000)
	}
	sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	w, err := AttachWatcher(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	u, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !u.Snapshot {
		t.Fatal("first reply is not marked as the snapshot")
	}

	// The pre-attach history must arrive — in the snapshot itself if the
	// shipper had flushed by then, otherwise in the next few polls.
	pollUntil(t, w, &u, "the pre-attach history", func(u *ViewUpdate) bool {
		return len(u.Rounds) >= 4 && u.MaxRound >= 4
	})
	if u.Rounds[0].Round != 0 || u.Rounds[len(u.Rounds)-1].Round < 3 {
		t.Fatalf("history rounds span %d..%d, want 0..3", u.Rounds[0].Round, u.Rounds[len(u.Rounds)-1].Round)
	}
	if u.Verdict.Rounds < 4 {
		t.Fatalf("verdict covers %d rounds, want >= 4", u.Verdict.Rounds)
	}
	if len(u.Sessions) != 1 || u.Sessions[0].State != "active" {
		t.Fatalf("sessions in update = %+v, want one active", u.Sessions)
	}

	// Advance the run: the already-attached watcher must see the new rounds
	// arrive.
	for r := int32(5); r <= 6; r++ {
		emitLiveRound(rec, r, int64(r)*1000)
	}
	pollUntil(t, w, &u, "the run to advance past round 4", func(u *ViewUpdate) bool {
		return u.MaxRound >= 6 && len(u.Rounds) > 0 && u.Rounds[len(u.Rounds)-1].Round >= 5
	})
}

// TestLiveStalledViewer pins what a viewer that stops reading may cost: only
// the goroutine serving its own connection. It polls over an unbuffered pipe
// and never reads the reply, so that goroutine blocks writing (a TCP conn
// behaves the same once the kernel buffers fill; the pipe just removes the
// slack). Meanwhile shipper batches and stats must still land, another
// viewer's polls must be answered, and Close must end the stuck connection
// and return.
func TestLiveStalledViewer(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{Capacity: 1 << 12, Label: "live-stalled"})
	for r := int32(0); r <= 4; r++ {
		emitLiveRound(tr.Recorder(0), r, int64(r)*1000)
	}
	sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	stuckServer, stuckClient := net.Pipe()
	defer stuckClient.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		col.serveSession(stuckServer)
	}()
	// One write of the whole sbWatch frame: a zero-length payload write would
	// wait for a read the stuck session never makes.
	if _, err := stuckClient.Write([]byte{1, 0, 0, 0, sbWatch}); err != nil {
		t.Fatal(err)
	}
	viewers := func() int {
		col.mu.Lock()
		defer col.mu.Unlock()
		return len(col.viewers)
	}
	for deadline := time.Now().Add(10 * time.Second); viewers() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stuck viewer was never registered")
		}
	}

	// The shipper's batches and stats land while the viewer is stuck.
	if err := sh.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	w, err := AttachWatcher(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	u, err := w.Poll()
	if err != nil {
		t.Fatalf("second viewer's poll: %v", err)
	}
	pollUntil(t, w, &u, "the shipped rounds", func(u *ViewUpdate) bool {
		return u.MaxRound >= 4 && len(u.Rounds) >= 4 && len(u.Hearts) == 1
	})
	select {
	case <-served:
		t.Fatal("the stuck viewer's session ended before Close")
	default:
	}

	if err := sh.Close(); err != nil {
		t.Fatalf("shipper close: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		col.Close()
		close(closed)
	}()
	for _, ch := range []chan struct{}{closed, served} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not end the stuck viewer's connection and return")
		}
	}
	if acc, done := col.Sessions(); acc != 1 || done != 1 {
		t.Fatalf("sessions accepted/done = %d/%d, want 1/1: viewers never count", acc, done)
	}
}

// TestLiveShipperDisconnect pins the satellite fix: a shipper connection that
// drops mid-run (no bye) leaves the session in a terminal "error" state with
// a reason — visible to SessionInfos, to attached viewers, and in the
// analyzer header — instead of stranding it "active" forever.
func TestLiveShipperDisconnect(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	tr := New(Config{Capacity: 1 << 10, Label: "live-drop"})
	rec := tr.Recorder(2)
	for r := int32(0); r <= 2; r++ {
		emitLiveRound(rec, r, int64(r)*1000)
	}
	sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("the hello to land", func() bool { acc, _ := col.Sessions(); return acc == 1 })
	waitFor("a batch to land", func() bool {
		for _, si := range col.SessionInfos() {
			if len(si.Hosts) > 0 {
				return true
			}
		}
		return false
	})

	// Kill the TCP conn out from under the session — the moral equivalent of
	// kill -9 on the host process. No bye will ever come.
	sh.conn.Close()
	waitFor("the session to reach its terminal state", func() bool {
		return col.SessionInfos()[0].State == "error"
	})
	si := col.SessionInfos()[0]
	if !strings.Contains(si.Error, "connection lost before bye") {
		t.Fatalf("session error = %q, want a connection-lost reason", si.Error)
	}
	if len(si.Hosts) == 0 || si.Hosts[0] != 2 {
		t.Fatalf("session hosts = %v, want [2]", si.Hosts)
	}

	// A viewer attaching now sees the disconnected session in its snapshot —
	// what gluon-trace top renders as DISCONNECTED.
	w, err := AttachWatcher(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	u, err := w.Poll()
	if err != nil {
		t.Fatalf("no snapshot from watcher: %v", err)
	}
	if len(u.Sessions) != 1 || u.Sessions[0].State != "error" {
		t.Fatalf("viewer sees sessions %+v, want one errored", u.Sessions)
	}
	w.Close()

	// The terminal state rides through Merged into the analyzer header.
	events, meta := col.Merged()
	if len(meta.Sessions) != 1 || meta.Sessions[0].State != "error" {
		t.Fatalf("meta.Sessions = %+v, want one errored", meta.Sessions)
	}
	var buf bytes.Buffer
	if err := SummarizeMeta(meta, events).WriteTables(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DISCONNECTED") {
		t.Fatalf("analyzer header does not surface the disconnect:\n%s", buf.String())
	}
	if acc, done := col.Sessions(); acc != 1 || done != 0 {
		t.Fatalf("sessions = (%d, %d), want (1, 0): no bye means not completed", acc, done)
	}
}
