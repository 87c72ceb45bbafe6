package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: the nil *Trace and nil *Recorder are valid, permanently
// disabled objects — every instrumentation site relies on this.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	tr.SetEnabled(true)
	if tr.Label() != "" {
		t.Error("nil Trace has a label")
	}
	if r := tr.Recorder(3); r != nil {
		t.Error("nil Trace handed out a recorder")
	}
	if ev, d := tr.Snapshot(); ev != nil || d != 0 {
		t.Error("nil Trace snapshot not empty")
	}
	if tr.Dropped() != 0 {
		t.Error("nil Trace dropped != 0")
	}

	var r *Recorder
	if r.Enabled() {
		t.Error("nil Recorder reports enabled")
	}
	if r.Now() != 0 {
		t.Error("nil Recorder Now() != 0")
	}
	r.SetRound(7)
	r.Emit(Event{Phase: PhaseSync}) // must not panic
}

// TestDisabledDiscards: a disabled session drops events before they reach
// any ring or counter.
func TestDisabledDiscards(t *testing.T) {
	tr := New(Config{})
	r := tr.Recorder(0)
	tr.SetEnabled(false)
	if r.Enabled() {
		t.Error("recorder enabled while session disabled")
	}
	r.Emit(Event{Phase: PhaseEncode, Value: 100, Mode: 1})
	if ev, _ := tr.Snapshot(); len(ev) != 0 {
		t.Errorf("disabled emit recorded %d events", len(ev))
	}
	if tr.Dropped() != 0 {
		t.Error("disabled emit counted as dropped")
	}
	tr.SetEnabled(true)
	r.Emit(Event{Phase: PhaseEncode, Value: 100, Mode: 1})
	if ev, _ := tr.Snapshot(); len(ev) != 1 {
		t.Errorf("re-enabled emit recorded %d events, want 1", len(ev))
	}
}

// TestRingOverflow: past capacity, old events are overwritten (counted as
// dropped) and snapshot returns the suffix window in emission order.
func TestRingOverflow(t *testing.T) {
	tr := New(Config{Capacity: 4})
	r := tr.Recorder(0)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Phase: PhaseSend, Start: int64(i)})
	}
	ev, dropped := tr.Snapshot()
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped() = %d, want 6", tr.Dropped())
	}
	if len(ev) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(6 + i); e.Start != want {
			t.Errorf("ev[%d].Start = %d, want %d (oldest-first suffix)", i, e.Start, want)
		}
	}
	if n := uint64(len(ev)) + dropped; n != 10 {
		t.Errorf("kept + dropped = %d, want the 10 emits", n)
	}
}

// TestSnapshotMergeOrder: events from several hosts come back sorted by
// Start, stamped with their host and round.
func TestSnapshotMergeOrder(t *testing.T) {
	tr := New(Config{})
	r0, r1 := tr.Recorder(0), tr.Recorder(1)
	if tr.Recorder(0) != r0 {
		t.Fatal("Recorder(0) not memoized")
	}
	r1.SetRound(2)
	r1.Emit(Event{Phase: PhaseCompute, Start: 30})
	r0.Emit(Event{Phase: PhaseSync, Start: 10})
	r1.Emit(Event{Phase: PhaseSync, Start: 20})
	ev, _ := tr.Snapshot()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].Start != 10 || ev[1].Start != 20 || ev[2].Start != 30 {
		t.Errorf("events not Start-ordered: %+v", ev)
	}
	if ev[0].Host != 0 || ev[1].Host != 1 {
		t.Error("host stamping wrong")
	}
	if ev[0].Round != -1 {
		t.Errorf("default round = %d, want -1", ev[0].Round)
	}
	if ev[1].Round != 2 || ev[2].Round != 2 {
		t.Error("SetRound not stamped")
	}
}

// TestLiveRollup: the fold's totals — what the live view reports — track
// emits, byte tags, phase durations, and the encode-only mode histogram.
func TestLiveRollup(t *testing.T) {
	tr := New(Config{Label: "roll"})
	r := tr.Recorder(0)
	r.SetRound(3)
	r.Emit(Event{Phase: PhaseEncode, Dur: 5, Value: 10, Meta: 4, GID: 2, Mode: 2})
	r.Emit(Event{Phase: PhaseEncode, Dur: 7, Value: 20, Mode: 2})
	// A non-encode event's Value is a wire length and its Mode slot is
	// meaningless — neither may pollute the byte or mode rollups.
	r.Emit(Event{Phase: PhaseRecvWait, Dur: 100, Value: 34, Mode: 1})
	events, _ := tr.Snapshot()
	s := SummarizeMeta(Meta{Label: tr.Label()}, events)
	if s.Label != "roll" || s.Events != 3 || s.Messages != 2 || len(s.Rounds) != 1 || s.Rounds[0].Round != 3 {
		t.Errorf("rollup header wrong: %+v", s)
	}
	if s.ValueBytes != 30 || s.MetaBytes != 4 || s.GIDBytes != 2 {
		t.Errorf("byte rollup wrong: %+v", s)
	}
	if s.Modes[2] != 2 || s.Modes[1] != 0 {
		t.Errorf("mode rollup wrong: %v", s.Modes)
	}
	if p := s.Phases[0]; p.Phase != PhaseEncode || p.Count != 2 || p.TotalNs != 12 {
		t.Errorf("encode phase rollup wrong: %+v", p)
	}
}

// TestConcurrentEmit: many goroutines on one recorder plus snapshots in
// flight; meant for -race.
func TestConcurrentEmit(t *testing.T) {
	tr := New(Config{Capacity: 128})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := tr.Recorder(g % 2)
			for i := 0; i < 500; i++ {
				r.SetRound(int32(i))
				r.Emit(Event{Phase: PhaseSend, Start: r.Now()})
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		tr.Snapshot()
		tr.Dropped()
	}
	wg.Wait()
	if ev, dropped := tr.Snapshot(); uint64(len(ev))+dropped != 2000 {
		t.Errorf("kept %d + dropped %d events, want 2000", len(ev), dropped)
	}
}

func TestPhaseNames(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := ParsePhase(p.String())
		if !ok || got != p {
			t.Errorf("ParsePhase(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := ParsePhase("bogus"); ok {
		t.Error("ParsePhase accepted bogus name")
	}
	if !PhaseFrameSend.Instant() || !PhaseFault.Instant() || PhaseBarrier.Instant() {
		t.Error("Instant() classification wrong")
	}
	if Phase(200).String() != "unknown" {
		t.Error("out-of-range phase name")
	}
}

// testEvents is a fixture exercising every field that must round-trip.
func testEvents() []Event {
	return []Event{
		{Start: 1000, Dur: 500, Phase: PhaseSync, Host: 0, Round: -1, Peer: -1, Field: 90, Detail: "dist"},
		{Start: 1100, Dur: 50, Phase: PhaseEncode, Host: 0, Round: 0, Peer: 1, Lane: 1, Field: 90, Mode: 2, Value: 128, Meta: 16},
		{Start: 1150, Dur: 10, Phase: PhaseEncode, Host: 0, Round: 0, Peer: 2, Lane: 2, Field: 90, Mode: 0},
		{Start: 1200, Phase: PhaseFrameSend, Host: 0, Round: 0, Peer: 1, Field: 3, Value: 144},
		{Start: 1300, Dur: 80, Phase: PhaseEncode, Host: 1, Round: 0, Peer: 0, Lane: 1, Field: 90, Mode: 4, GID: 64, Value: 32},
		{Start: 1400, Dur: 200, Phase: PhaseCompute, Host: 1, Round: 0, Peer: -1},
		{Start: 1500, Dur: 90, Phase: PhaseBarrier, Host: 1, Round: 0, Peer: -1, Detail: "termination"},
		{Start: 1600, Phase: PhaseFault, Host: 1, Round: 0, Peer: 0, Detail: "injected delay 5ms"},
	}
}

func TestChromeRoundTrip(t *testing.T) {
	events := testEvents()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, Meta{Label: "rt", Dropped: 3}, events); err != nil {
		t.Fatal(err)
	}
	// The document must be valid JSON with the trace_event shape.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("chrome export missing traceEvents")
	}
	got, meta, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", meta.Dropped)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d (metadata records must be skipped)", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestWriteFileFormats: a trace file is a Chrome trace whatever its path is
// called.
func TestWriteFileFormats(t *testing.T) {
	tr := New(Config{Label: "file"})
	r := tr.Recorder(0)
	r.Emit(Event{Phase: PhaseEncode, Dur: 10, Peer: 1, Value: 5, Mode: 1})

	dir := t.TempDir()
	for _, name := range []string{"out.json", "out.jsonl"} {
		path := dir + "/" + name
		if _, err := tr.WriteFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil || doc["traceEvents"] == nil {
			t.Fatalf("%s is not a Chrome trace (%v):\n%s", name, err, raw)
		}
		got, _, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 1 || got[0].Phase != PhaseEncode || got[0].Value != 5 {
			t.Errorf("%s: round-trip lost the event: %+v", name, got)
		}
	}
}

func TestReadEventsErrors(t *testing.T) {
	if _, _, err := ReadEvents(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := ReadEvents(strings.NewReader("{not json\n")); err == nil {
		t.Error("malformed line accepted")
	}
	// Valid JSON that is not a gluon export must not parse as zero events.
	if _, _, err := ReadEvents(strings.NewReader(`{"garbage": true}`)); err == nil {
		t.Error("foreign JSON accepted as a trace")
	}
}

// FuzzReadEvents: no input may panic the reader, and whatever it accepts
// must fold and re-export.
func FuzzReadEvents(f *testing.F) {
	var chrome bytes.Buffer
	if err := WriteChrome(&chrome, Meta{Label: "seed", Dropped: 1}, testEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(chrome.Bytes())
	f.Add([]byte(`{"traceEvents":[{"name":"encode","ph":"X","ts":1.5,"pid":1,"args":{"round":2,"peer":0}}]}`))
	f.Add([]byte(`{"garbage": true}`)) // JSON that is not an export
	f.Fuzz(func(t *testing.T, data []byte) {
		events, meta, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		SummarizeMeta(meta, events).WriteTables(io.Discard)
		ComputeCriticalPath(meta, events).WriteTables(io.Discard)
		var buf bytes.Buffer
		if err := WriteChrome(&buf, meta, events); err != nil {
			t.Fatal(err)
		}
		again, _, err := ReadEvents(&buf)
		if err != nil || len(again) != len(events) {
			t.Fatalf("re-export of %d accepted events read back as %d (%v)", len(events), len(again), err)
		}
	})
}

func TestSummarize(t *testing.T) {
	s := SummarizeMeta(Meta{Label: "sum", Dropped: 2}, testEvents())
	if s.Events != 8 || s.Dropped != 2 || s.Hosts != 2 {
		t.Errorf("header wrong: %+v", s)
	}
	if s.Messages != 3 || s.ValueBytes != 160 || s.MetaBytes != 16 || s.GIDBytes != 64 {
		t.Errorf("totals wrong: %+v", s)
	}
	if s.TotalBytes() != 240 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
	if s.Modes[0] != 1 || s.Modes[2] != 1 || s.Modes[4] != 1 {
		t.Errorf("modes wrong: %v", s.Modes)
	}
	// Rounds: -1 (the sync span) and 0.
	if len(s.Rounds) != 2 || s.Rounds[0].Round != -1 || s.Rounds[1].Round != 0 {
		t.Fatalf("rounds wrong: %+v", s.Rounds)
	}
	r0 := s.Rounds[1]
	if r0.Messages != 3 || r0.ComputeNs != 200 || r0.BarrierNs != 90 {
		t.Errorf("round 0 wrong: %+v", r0)
	}
	// Peer skew: host0 sent to peers 1 and 2, host1 to peer 0.
	if len(s.Peers) != 3 {
		t.Fatalf("peers wrong: %+v", s.Peers)
	}
	if p := s.Peers[0]; p.Host != 0 || p.Peer != 1 || p.Bytes != 144 {
		t.Errorf("peer[0] wrong: %+v", p)
	}
	if len(s.Faults) != 1 || s.Faults[0].Detail != "injected delay 5ms" {
		t.Errorf("faults wrong: %+v", s.Faults)
	}

	var buf bytes.Buffer
	if err := s.WriteTables(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"per-round volume", "per-peer volume", "phase time breakdown", "encoding modes", "fault timeline", "bitvec", "injected delay 5ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q:\n%s", want, out)
		}
	}
}

// TestSummarizeMaxAcrossHosts: round time columns take the max of per-host
// sums, not the global sum.
func TestSummarizeMaxAcrossHosts(t *testing.T) {
	s := SummarizeMeta(Meta{}, []Event{
		{Phase: PhaseSync, Host: 0, Round: 0, Dur: 10},
		{Phase: PhaseSync, Host: 0, Round: 0, Dur: 15}, // host 0 sums to 25
		{Phase: PhaseSync, Host: 1, Round: 0, Dur: 40}, // host 1 is the max
	})
	if len(s.Rounds) != 1 || s.Rounds[0].SyncNs != 40 {
		t.Errorf("sync max = %+v, want 40", s.Rounds)
	}
}

// TestServePprof: the -pprof-addr endpoint serves the capture handlers and
// turns phase labels on, so CPU captures taken from it are stage-attributed.
func TestServePprof(t *testing.T) {
	defer SetPhaseLabels(false)
	ps, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get("http://" + ps.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
	}
	if !phaseLabels.Load() {
		t.Error("ServePprof left phase labels off")
	}
}

// TestLabelPhase: the phase-label gate is allocation-free when off (the
// default) and round-trips goroutine labels when on.
func TestLabelPhase(t *testing.T) {
	if phaseLabels.Load() {
		t.Fatal("phase labels enabled by default")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		done := LabelPhase(PhaseEncode)
		done()
	}); allocs != 0 {
		t.Errorf("disabled LabelPhase allocates %.0f/op, want 0", allocs)
	}
	SetPhaseLabels(true)
	defer SetPhaseLabels(false)
	if !phaseLabels.Load() {
		t.Error("SetPhaseLabels(true) not visible")
	}
	// Goroutine label sets are only observable through profiles; assert the
	// enabled path applies and restores without panicking.
	done := LabelPhase(PhaseFold)
	done()
}

// TestEmitNoAlloc pins the hot-path allocation contract: an enabled Emit
// with a constant Detail performs zero heap allocations.
func TestEmitNoAlloc(t *testing.T) {
	tr := New(Config{Capacity: 1 << 12})
	r := tr.Recorder(0)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(Event{Phase: PhaseSend, Start: 1, Dur: 2, Peer: 1, Detail: "hot"})
	})
	if allocs != 0 {
		t.Errorf("Emit allocates %.1f per call, want 0", allocs)
	}
}

func TestModeNames(t *testing.T) {
	want := []string{"empty", "dense", "bitvec", "indices", "gids"}
	for m, name := range want {
		if ModeName(int8(m)) != name {
			t.Errorf("ModeName(%d) = %q, want %q", m, ModeName(int8(m)), name)
		}
	}
	if ModeName(9) != "unknown" {
		t.Error("ModeName(9) should be unknown")
	}
}

func ExampleSummary_WriteTables() {
	s := SummarizeMeta(Meta{Label: "example"}, []Event{
		{Phase: PhaseEncode, Host: 0, Round: 0, Peer: 1, Value: 100, Mode: 1, Dur: 10},
	})
	fmt.Println(s.Messages, s.TotalBytes())
	// Output: 1 100
}
