package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSidebandRoundTrip ships two single-host processes' traces to a
// collector through two concurrent sessions — their stats and batch frames
// interleave on the collector's shared clock table (run under -race) — and
// checks the merged timeline carries every event, the exact byte tags, the
// declared clock table, and the shipped heartbeats.
func TestSidebandRoundTrip(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	const filler = 200 // untagged events per host, each flushed as its own batch
	var traces [2]*Trace
	var shippers [2]*Shipper
	for host := range traces {
		tr := New(Config{Capacity: 1 << 10, Label: "sideband-rt"})
		r := tr.Recorder(host)
		r.SetRound(0)
		r.Emit(Event{Start: r.Now(), Dur: 10, Phase: PhaseEncode, Peer: int32(1 - host), Value: 100, Meta: 7, Mode: 1})
		// The test drives the flushes itself; the ticker never fires.
		sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if sh.Clock().Samples == 0 {
			t.Fatal("shipper measured no clock samples")
		}
		traces[host], shippers[host] = tr, sh
	}
	// Emit more after the handshakes, from both processes at once, flushing
	// after every event so batch and stats frames of the two sessions
	// interleave as densely as the wire allows.
	var wg sync.WaitGroup
	for host, tr := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := tr.Recorder(host)
			r.SetRound(1)
			r.SetLivePhase(PhaseCompute)
			r.Emit(Event{Start: r.Now(), Dur: 10, Phase: PhaseEncode, Peer: int32(1 - host), Value: 50, GID: 3, Mode: 3})
			for i := 0; i < filler; i++ {
				r.Emit(Event{Start: r.Now(), Dur: 1, Phase: PhaseCompute, Peer: -1})
				if err := shippers[host].flush(); err != nil {
					t.Errorf("host %d flush: %v", host, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, sh := range shippers {
		if err := sh.Close(); err != nil {
			t.Fatalf("shipper close: %v", err)
		}
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if errs := col.Errs(); len(errs) != 0 {
		t.Fatalf("collector errors: %v", errs)
	}
	if acc, done := col.Sessions(); acc != 2 || done != 2 {
		t.Fatalf("sessions = (%d accepted, %d completed), want (2, 2)", acc, done)
	}

	events, meta := col.Merged()
	if want := 2 * (2 + filler); len(events) != want {
		t.Fatalf("merged %d events, want %d", len(events), want)
	}
	var value, metaB, gid uint64
	for _, e := range events {
		value, metaB, gid = value+e.Value, metaB+e.Meta, gid+e.GID
	}
	if value != 300 || metaB != 14 || gid != 6 {
		t.Fatalf("merged byte tags = %d/%d/%d, want 300/14/6", value, metaB, gid)
	}
	if meta.Label != "sideband-rt" {
		t.Fatalf("merged label = %q", meta.Label)
	}
	if len(meta.Clocks) != 2 {
		t.Fatalf("clock table has %d hosts, want 2: %+v", len(meta.Clocks), meta.Clocks)
	}
	for _, ci := range meta.Clocks {
		if ci.Samples == 0 {
			t.Fatalf("clock entry without samples: %+v", ci)
		}
	}
	// Heartbeats made it into the collector's health table.
	hbs := col.buildUpdate(true).Hearts
	if len(hbs) != 2 {
		t.Fatalf("health table has %d hosts, want 2", len(hbs))
	}
	for _, hb := range hbs {
		if hb.Round != 1 {
			t.Fatalf("host %d heartbeat round = %d, want 1", hb.Host, hb.Round)
		}
	}
	// Ordering holds on the merged axis.
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatal("merged events out of order")
		}
	}
}

// TestSidebandAppliesOffsets: the merge must rebase remote timestamps by
// exactly the declared offset.
func TestSidebandAppliesOffsets(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	tr := New(Config{Capacity: 64})
	tr.Recorder(0).Emit(Event{Start: 1000, Dur: 1, Phase: PhaseCompute})
	sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	col.Close()
	events, meta := col.Merged()
	if len(events) != 1 || len(meta.Clocks) != 1 {
		t.Fatalf("got %d events, %d clocks", len(events), len(meta.Clocks))
	}
	if want := 1000 + meta.Clocks[0].OffsetNs; events[0].Start != want {
		t.Fatalf("merged start = %d, want %d (1000 + declared offset %d)",
			events[0].Start, want, meta.Clocks[0].OffsetNs)
	}
}

func TestSidebandFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, sbBatch, []byte(`{"host":3}`)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(&buf)
	if err != nil || typ != sbBatch || string(body) != `{"host":3}` {
		t.Fatalf("round trip = (%d, %q, %v)", typ, body, err)
	}
	// Zero-length and oversized frames are rejected, not allocated.
	if _, _, err := readFrame(strings.NewReader("\x00\x00\x00\x00")); err == nil {
		t.Fatal("zero-length frame should error")
	}
	if _, _, err := readFrame(strings.NewReader("\xff\xff\xff\xff")); err == nil {
		t.Fatal("oversized frame should error")
	}
	// Truncated payload errors instead of hanging.
	if _, _, err := readFrame(strings.NewReader("\x05\x00\x00\x00\x04ab")); err == nil {
		t.Fatal("truncated frame should error")
	}
}

// TestSidebandHeaderOnlyFrame: a session that says hello and then sends only
// a header claiming the largest legal frame must cost the collector the bytes
// that arrived, not the bytes that were promised, and end as a disconnect.
func TestSidebandHeaderOnlyFrame(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, sbHello, []byte(`{"clock":{"host":-1,"samples":1}}`)); err != nil {
		t.Fatal(err)
	}
	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if si := col.SessionInfos(); len(si) == 1 && si[0].State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("session never reached state %q: %+v", want, col.SessionInfos())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitState("active")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxSidebandFrame)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitState("error")
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 4-byte header made the collector allocate %d bytes", grew)
	}
}

// FuzzReadFrame: the sideband port is open to the network, so no byte string
// may panic the framing, and a frame it accepts must be the frame writeFrame
// would have written.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("\x0b\x00\x00\x00\x04{\"host\":3}"))
	f.Add([]byte("\x00\x00\x00\x00"))
	f.Add([]byte("\xff\xff\xff\xff"))
	f.Add([]byte("\x05\x00\x00\x00\x04ab"))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := writeFrame(&again, typ, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("accepted frame (type %d, %d bytes) does not re-encode to its input", typ, len(body))
		}
	})
}

// TestShipperMissedCounts: a ring smaller than the emission burst reports
// the overwritten prefix as missed, which the collector counts as dropped —
// once: the events missing from the merged timeline are exactly those.
func TestShipperMissedCounts(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	tr := New(Config{Capacity: 8})
	r := tr.Recorder(0)
	for i := 0; i < 20; i++ { // 12 events overwritten before the first drain
		r.Emit(Event{Start: int64(i), Dur: 1, Phase: PhaseCompute})
	}
	sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	col.Close()
	events, meta := col.Merged()
	if len(events) != 8 {
		t.Fatalf("merged %d events, want the 8 ring survivors", len(events))
	}
	if meta.Dropped != 12 {
		t.Fatalf("meta.Dropped = %d, want the 12 lost events", meta.Dropped)
	}
}

// TestShipperWrapAfterFlushLosesNothing: a ring that wraps only after each
// flush has drained it loses no event the collector needed, so the merged
// timeline holds every emit and reports none dropped.
func TestShipperWrapAfterFlushLosesNothing(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	tr := New(Config{Capacity: 8})
	sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Recorder(0)
	for i := 0; i < 40; i++ {
		r.Emit(Event{Start: int64(i), Dur: 1, Phase: PhaseCompute})
		if i%8 == 7 {
			if err := sh.flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	col.Close()
	events, meta := col.Merged()
	if len(events) != 40 || meta.Dropped != 0 {
		t.Fatalf("merged %d events with %d dropped, want all 40 and none dropped", len(events), meta.Dropped)
	}
}

// TestViewMatchesMergedAfterWrap: when a ring wraps between flushes, a
// viewer's counts are those of the merged timeline — the same events, bytes
// and newest round — and its dropped count is the events that timeline
// misses.
func TestViewMatchesMergedAfterWrap(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	tr := New(Config{Capacity: 8})
	sh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Recorder(0)
	for round := int32(0); round < 3; round++ { // 12 emits a flush: 4 lost each
		r.SetRound(round)
		for i := int64(0); i < 12; i++ {
			r.Emit(Event{Start: int64(round)*100 + i, Dur: 1, Phase: PhaseEncode, Peer: 1, Value: 8, Meta: 2, GID: 1, Mode: 1})
		}
		if err := sh.flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, done := col.Sessions(); done == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("collector never saw the session end")
		}
	}
	w, err := AttachWatcher(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	u, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	events, meta := col.Merged()
	s := SummarizeMeta(meta, events)
	if s.Events != 24 || s.Dropped != 12 || len(s.Rounds) != 3 {
		t.Fatalf("merged summary: %d events, %d dropped, %d rounds; want 24, 12, 3", s.Events, s.Dropped, len(s.Rounds))
	}
	if u.Events != uint64(s.Events) || u.Dropped != s.Dropped || u.MaxRound != s.Rounds[len(s.Rounds)-1].Round ||
		u.ValueBytes != s.ValueBytes || u.MetaBytes != s.MetaBytes || u.GIDBytes != s.GIDBytes {
		t.Errorf("view: %d events, %d dropped, max round %d, bytes %d/%d/%d; merged: %d, %d, %d, %d/%d/%d",
			u.Events, u.Dropped, u.MaxRound, u.ValueBytes, u.MetaBytes, u.GIDBytes,
			s.Events, s.Dropped, s.Rounds[len(s.Rounds)-1].Round, s.ValueBytes, s.MetaBytes, s.GIDBytes)
	}
}

// TestCollectorFrontierWaitsForLateSession: two shipper sessions, host 1
// gating every round, and the session carrying host 1 holds back its first
// flush until the other session has shipped everything and said bye. A
// session that said hello but has not shipped a span yet holds the
// collector's frontier, so no round closes with host 0 alone: the live
// fold's verdicts match the offline fold of the merged timeline round by
// round.
func TestCollectorFrontierWaitsForLateSession(t *testing.T) {
	col, err := ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	// Host 1 reaches each round's barrier 4ms after host 0: far beyond the
	// loopback clock uncertainty, so the offline fold names it every time.
	emit := func(tr *Trace, host int32, compute int64) {
		rec := tr.Recorder(int(host))
		for round := int32(0); round < 4; round++ {
			rec.SetRound(round)
			s := synthRound{host: host, round: round, start: int64(round) * 10_000_000, compute: compute,
				encode: 100_000, barrier: 9_000_000 - compute, peer: 1 - host, value: 8}
			for _, e := range s.events() {
				rec.Emit(e)
			}
		}
	}
	early := New(Config{Capacity: 1 << 10, Label: "early"})
	late := New(Config{Capacity: 1 << 10, Label: "late"})
	emit(early, 0, 1_000_000)
	emit(late, 1, 5_000_000)
	earlySh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: early, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lateSh, err := StartShipper(ShipperConfig{Addr: col.Addr(), Trace: late, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// wait polls the collector's session counts: both hellos land before
	// anything is shipped, as they do in a real cluster, where a process
	// says hello before its first barrier.
	wait := func(what string, ok func(accepted, done int) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(col.Sessions()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("collector never saw %s", what)
			}
		}
	}
	wait("both hellos", func(accepted, _ int) bool { return accepted == 2 })
	waitDone := func(n int) { wait(fmt.Sprintf("%d sessions end", n), func(_, done int) bool { return done == n }) }
	if err := earlySh.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(1)
	if err := lateSh.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(2)

	col.mu.Lock()
	live := col.rollup.CriticalPath("", 0).Rounds
	col.mu.Unlock()
	events, meta := col.Merged()
	whole := ComputeCriticalPath(meta, events).Rounds
	if len(whole) != 4 || len(live) < 3 {
		t.Fatalf("offline fold closed %d rounds, live fold %d; want 4 and at least 3", len(whole), len(live))
	}
	for i, lr := range live {
		wr := whole[i]
		if lr.Round != wr.Round || lr.Gate != wr.Gate || len(lr.Hosts) != len(wr.Hosts) {
			t.Errorf("round %d: live fold gate %d over %d hosts, offline round %d gate %d over %d hosts",
				lr.Round, lr.Gate, len(lr.Hosts), wr.Round, wr.Gate, len(wr.Hosts))
		}
		if wr.Gate != 1 || len(wr.Hosts) != 2 {
			t.Errorf("offline round %d: gate %d over %d hosts, want host 1 over 2", wr.Round, wr.Gate, len(wr.Hosts))
		}
	}
}
