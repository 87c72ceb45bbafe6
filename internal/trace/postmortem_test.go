package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestRingWraparoundConcurrent drives concurrent emitters on two hosts well
// past ring capacity: Dropped must stay exact (retained + dropped = emitted)
// and Snapshot must come back Start-ordered across the wrapped rings.
func TestRingWraparoundConcurrent(t *testing.T) {
	const (
		capacity   = 256
		hosts      = 2
		goroutines = 4 // per host
		perG       = 500
	)
	tr := New(Config{Capacity: capacity})
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		r := tr.Recorder(h)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					r.Emit(Event{Phase: PhaseSync, Start: r.Now(), Peer: -1})
				}
			}()
		}
	}
	wg.Wait()

	events, dropped := tr.Snapshot()
	total := uint64(hosts * goroutines * perG)
	if uint64(len(events))+dropped != total {
		t.Fatalf("retained %d + dropped %d != emitted %d", len(events), dropped, total)
	}
	if len(events) != hosts*capacity {
		t.Fatalf("snapshot holds %d events, want %d (capacity %d × %d hosts)",
			len(events), hosts*capacity, capacity, hosts)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatalf("snapshot out of order at %d: %d after %d", i, events[i].Start, events[i-1].Start)
		}
	}
	if got := tr.Dropped(); got != dropped {
		t.Fatalf("Dropped() = %d after Snapshot reported %d", got, dropped)
	}
}

// TestFlightRecorderDumpAndLoad: Dump freezes a parseable bundle carrying
// the ring tail, stacks, and the dump context; a second dump for the same
// (trigger, host, peer) key is suppressed.
func TestFlightRecorderDumpAndLoad(t *testing.T) {
	dir := t.TempDir()
	tr := New(Config{Capacity: 64, Label: "dump-test"})
	r := tr.Recorder(2)
	r.SetRound(7)
	r.Emit(Event{Phase: PhaseEncode, Start: r.Now(), Peer: 1})

	fr := NewFlightRecorder(FlightConfig{Dir: dir, Trace: tr, Host: 2})
	fr.SetRunConfig("unit test")
	fr.SetLastCheckpoint(4)
	info := DumpInfo{Trigger: TriggerManual, Host: 2, Peer: -1, Round: 7,
		Phase: PhaseEncode, Cause: errors.New("operator asked")}
	path, err := fr.Dump(info)
	if err != nil || path == "" {
		t.Fatalf("Dump: path=%q err=%v", path, err)
	}
	if p2, err := fr.Dump(info); err != nil || p2 != "" {
		t.Fatalf("duplicate dump not suppressed: path=%q err=%v", p2, err)
	}

	bundles, bad, err := LoadBundles(dir)
	if err != nil || len(bad) != 0 {
		t.Fatalf("LoadBundles: bundles=%d bad=%v err=%v", len(bundles), bad, err)
	}
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Version != BundleVersion || b.Trigger != TriggerManual || b.Host != 2 || b.Round != 7 {
		t.Errorf("bundle header wrong: %+v", b)
	}
	if b.LastCkptEpoch != 4 {
		t.Errorf("LastCkptEpoch = %d, want 4", b.LastCkptEpoch)
	}
	if b.RunConfig != "unit test" {
		t.Errorf("RunConfig = %q", b.RunConfig)
	}
	if !strings.Contains(b.Cause, "operator asked") {
		t.Errorf("Cause = %q", b.Cause)
	}
	if len(b.Events) != 1 {
		t.Errorf("bundle carries %d ring events, want 1", len(b.Events))
	}
	if b.Stacks == "" || !strings.Contains(b.Stacks, "goroutine") {
		t.Error("bundle carries no goroutine dump")
	}
	if b.TraceID == "" {
		t.Error("bundle has no trace id")
	}
}

// TestLoadBundlesRefusesForeignJSON: a file named like a bundle that holds
// JSON of another shape lands in the corrupt list, not in the diagnosis,
// where its zero fields would read as "host 0 failed first".
func TestLoadBundlesRefusesForeignJSON(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(FlightConfig{Dir: dir, Host: 1})
	if _, err := fr.Dump(DumpInfo{Trigger: TriggerManual, Host: 1, Peer: -1, Round: 2, Phase: NumPhases}); err != nil {
		t.Fatal(err)
	}
	foreign := "postmortem-h003-x-01.json"
	if err := os.WriteFile(filepath.Join(dir, foreign), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	bundles, bad, err := LoadBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 || bundles[0].Host != 1 {
		t.Fatalf("loaded %d bundles (want only host 1's)", len(bundles))
	}
	if len(bad) != 1 || !strings.Contains(bad[0].Error(), foreign) {
		t.Fatalf("corrupt list %v, want %s alone", bad, foreign)
	}
}

// FuzzBundle: no bytes may panic the decoder, and whatever it accepts must
// diagnose and render.
func FuzzBundle(f *testing.F) {
	fr := NewFlightRecorder(FlightConfig{Dir: f.TempDir(), Trace: New(Config{Capacity: 8}), Host: 2})
	path, err := fr.Dump(DumpInfo{Trigger: TriggerDeadHost, Host: 2, Peer: 0, Round: 3, Phase: PhaseRecvWait})
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"host":-7,"peer":99,"round":-1,"clock":{"samples":3}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBundle(data)
		if err != nil {
			return
		}
		Diagnose([]*Bundle{b}).WriteReport(io.Discard)
	})
}

// TestFlightRecorderMaxDumps caps cascade flooding.
func TestFlightRecorderMaxDumps(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Dir: t.TempDir(), MaxDumps: 2})
	triggers := []Trigger{TriggerPeerPoison, TriggerDeadHost, TriggerStall}
	var written int
	for i, tg := range triggers {
		path, err := fr.Dump(DumpInfo{Trigger: tg, Host: 0, Peer: i, Round: -1, Phase: NumPhases})
		if err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
		if path != "" {
			written++
		}
	}
	if written != 2 {
		t.Fatalf("wrote %d bundles, want MaxDumps = 2", written)
	}
}

// TestDiagnoseSilentDeath: survivors naming a peer that left no bundle of
// its own yield a silent-death verdict against that rank (the kill -9 /
// power-loss case).
func TestDiagnoseSilentDeath(t *testing.T) {
	mk := func(host int32, sess string, at int64) *Bundle {
		return &Bundle{Version: BundleVersion, Trigger: TriggerDeadHost, Host: host, Peer: 2,
			Round: 3, Phase: "recvwait", TraceID: sess, WallUnixNano: 1_000_000_000 + at,
			SessionNs: at, Cause: "peer declared dead: connection reset"}
	}
	d := Diagnose([]*Bundle{mk(0, "s0", 100), mk(1, "s1", 200)})
	if d.FailedRank != 2 || !d.SilentDeath {
		t.Fatalf("FailedRank=%d SilentDeath=%v, want 2/true", d.FailedRank, d.SilentDeath)
	}
	if d.ClockSource != "wall" {
		t.Errorf("ClockSource = %q, want wall (no measured offsets)", d.ClockSource)
	}
	if d.Sessions != 2 || len(d.Chain) != 2 {
		t.Errorf("Sessions=%d Chain=%d", d.Sessions, len(d.Chain))
	}
	var buf bytes.Buffer
	d.WriteReport(&buf)
	out := buf.String()
	if !strings.Contains(out, "host 2 failed first") || !strings.Contains(out, "died silently") {
		t.Errorf("report missing silent-death verdict:\n%s", out)
	}
}

// TestLoggerTee: one record is one line on the logger's writer, and that
// same line is the newest recent-log entry of a bundle dumped afterwards.
func TestLoggerTee(t *testing.T) {
	var buf bytes.Buffer
	log := newLogger(&buf, "testcomp")
	dir := t.TempDir()
	fr := NewFlightRecorder(FlightConfig{Dir: dir})
	Arm(fr)
	defer Arm(nil)

	log.Warn("something broke", "host", 2, "note", "two words")
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("one record wrote %d lines: %q", len(lines), buf.String())
	}
	for _, want := range []string{"level=WARN", `msg="something broke"`, "component=testcomp", "host=2", `note="two words"`} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("log line %q missing %q", lines[0], want)
		}
	}
	if _, err := fr.Dump(DumpInfo{Trigger: TriggerManual, Host: 0, Peer: -1}); err != nil {
		t.Fatal(err)
	}
	bundles, _, err := LoadBundles(dir)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("LoadBundles: %d bundles, err %v", len(bundles), err)
	}
	if logs := bundles[0].RecentLogs; len(logs) == 0 || logs[len(logs)-1] != lines[0] {
		t.Errorf("bundle recent_logs = %q, want newest %q", logs, lines[0])
	}

	buf.Reset()
	LogDropped(newLogger(&buf, "c"), 0)
	if buf.Len() != 0 {
		t.Errorf("LogDropped(0) wrote %q", buf.String())
	}
	LogDropped(newLogger(&buf, "c"), 42)
	if !strings.Contains(buf.String(), "dropped=42") || !strings.Contains(buf.String(), "remedy=") {
		t.Errorf("LogDropped line = %q", buf.String())
	}
}
