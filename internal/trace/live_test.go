package trace

import (
	"bytes"
	"errors"
	"net"
	"os"
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

// TestLiveWatcherMidRunAttach attaches a watcher to a collector mid-run and
// checks the protocol's core promise: the first update is a consistent
// snapshot of everything attributed so far, and later updates stream in
// incrementally as the run advances.
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

	u, ok := <-w.Updates()
	if !ok {
		t.Fatalf("updates closed immediately: %v", w.Err())
	}
	if !u.Snapshot {
		t.Fatal("first update is not marked as the snapshot")
	}
	lastSeq := u.Seq

	// The pre-attach history must arrive — in the snapshot itself if the
	// shipper had flushed by then, otherwise in the next few updates.
	deadline := time.After(10 * time.Second)
	for len(u.Rounds) < 4 || u.Stats.MaxRound < 4 {
		select {
		case nu, ok := <-w.Updates():
			if !ok {
				t.Fatalf("updates closed while waiting for history: %v", w.Err())
			}
			if nu.Seq < lastSeq {
				t.Fatalf("seq went backwards: %d after %d", nu.Seq, lastSeq)
			}
			if nu.Snapshot {
				t.Fatal("snapshot flag on a non-first update")
			}
			lastSeq, u = nu.Seq, nu
		case <-deadline:
			t.Fatalf("no update with pre-attach history: %d rounds, max round %d", len(u.Rounds), u.Stats.MaxRound)
		}
	}
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
	// arrive incrementally.
	for r := int32(5); r <= 6; r++ {
		emitLiveRound(rec, r, int64(r)*1000)
	}
	for u.Stats.MaxRound < 6 || len(u.Rounds) == 0 || u.Rounds[len(u.Rounds)-1].Round < 5 {
		select {
		case nu, ok := <-w.Updates():
			if !ok {
				t.Fatalf("updates closed while waiting for progress: %v", w.Err())
			}
			u = nu
		case <-deadline:
			t.Fatalf("watcher never saw the run advance past round 4: max %d", u.Stats.MaxRound)
		}
	}
	if u.Snapshot {
		t.Fatal("incremental update carries the snapshot flag")
	}
}

// TestLiveSlowViewerDropped pins the bounded fan-out contract: a viewer that
// stops reading is dropped (connection closed, queue freed) while a healthy
// viewer and the shipper keep flowing.
//
// Nothing here runs on a clock. The shipper's own flush ticker is parked and
// the test flushes by hand: each flush lands a stats frame, the collector
// kicks one update, and the test waits for the healthy watcher to receive it
// before flushing again. So the healthy viewer is never more than one driven
// update behind (the collector's 250 ms tick may add the odd extra; its
// default queue of 8 absorbs them), and the drop of the slow viewer is
// awaited as "one viewer left after an update reached the healthy one" — an
// ordering the collector guarantees, since it unregisters slow viewers in
// the same critical section that queued the update. The timeouts below only
// turn a hang into a message.
func TestLiveSlowViewerDropped(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	tr := New(Config{Capacity: 1 << 12, Label: "live-slow"})
	for r := int32(0); r <= 40; r++ {
		for h := 0; h < 4; h++ {
			emitLiveRound(tr.Recorder(h), r, int64(r)*1000)
		}
	}
	sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	// Healthy viewer: a Watcher, whose read loop never waits on its consumer.
	healthy, err := AttachWatcher(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	var last ViewUpdate
	nextUpdate := func(why string) {
		t.Helper()
		select {
		case u, ok := <-healthy.Updates():
			if !ok {
				t.Fatalf("healthy viewer was dropped while waiting for %s: %v", why, healthy.Err())
			}
			if u.Seq <= last.Seq {
				t.Fatalf("update seq went from %d to %d", last.Seq, u.Seq)
			}
			last = u
		case <-time.After(30 * time.Second):
			t.Fatalf("no update reached the healthy viewer while waiting for %s", why)
		}
	}
	// flushed ships one stats frame and waits for the update it kicks.
	flushed := func(why string) {
		t.Helper()
		if err := sh.flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		nextUpdate(why)
	}
	nextUpdate("the snapshot")
	if !last.Snapshot {
		t.Fatal("first update is not the snapshot")
	}

	// Slow viewer: registered through the same addViewer the sbWatch handler
	// uses, with one queued update as all its slack, over an unbuffered pipe
	// whose far end never reads — its writer goroutine blocks on the very
	// first frame, so the queue overflows on the second update after that at
	// the latest (a TCP conn behaves the same once the kernel buffers fill;
	// the pipe just removes the megabytes of slack).
	col.mu.Lock()
	col.viewerCap = 1
	col.mu.Unlock()
	viewers := func() int {
		col.mu.Lock()
		defer col.mu.Unlock()
		return len(col.viewers)
	}
	slowServer, slowClient := net.Pipe()
	defer slowClient.Close()
	if v := col.addViewer(slowServer); v == nil {
		t.Fatal("addViewer refused the slow viewer")
	}
	if n := viewers(); n != 2 {
		t.Fatalf("%d viewers attached, want 2", n)
	}
	// Updates queued before the slow viewer registered may still be on their
	// way to the healthy one, so count generously; every iteration is one
	// more update delivered.
	const maxUpdates = 32
	for i := 0; viewers() != 1; i++ {
		if i == maxUpdates {
			t.Fatalf("slow viewer still attached after %d updates reached the healthy one (%d viewers)", i, viewers())
		}
		flushed("the slow viewer to be dropped")
	}

	// The drop closed the slow viewer's connection, not just its queue.
	slowClient.SetReadDeadline(time.Now().Add(30 * time.Second))
	junk := make([]byte, 64<<10)
	var readErr error
	for readErr == nil {
		_, readErr = slowClient.Read(junk) // drain the write in flight, then EOF
	}
	if errors.Is(readErr, os.ErrDeadlineExceeded) {
		t.Fatal("slow viewer's conn still open after drop")
	}

	// The healthy viewer keeps receiving after the drop.
	flushed("an update after the drop")

	// And the shipper never stalled or errored on account of the viewer; its
	// bye shows up in the healthy viewer's stream as the session ending.
	if err := sh.Err(); err != nil {
		t.Fatalf("shipper hit an error: %v", err)
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("shipper close: %v", err)
	}
	for len(last.Sessions) != 1 || last.Sessions[0].State != "done" {
		nextUpdate("the shipper's bye to land")
	}
	if acc, done := col.Sessions(); acc != 1 || done != 1 {
		t.Fatalf("sessions accepted/done = %d/%d, want 1/1", acc, done)
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
	u, ok := <-w.Updates()
	if !ok {
		t.Fatalf("no snapshot from watcher: %v", w.Err())
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
