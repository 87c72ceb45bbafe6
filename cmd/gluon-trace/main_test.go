package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gluon/internal/trace"
)

const fixtures = "../../internal/trace/testdata"

// TestCommands drives every subcommand through run, the entry point main
// calls with os.Stdout. The tables and critical outputs of the committed
// fixtures were captured from the binary of the commit before the fold was
// unified, so a byte of drift in any view is a failure.
func TestCommands(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := trace.WriteFileMeta(empty, trace.Meta{Label: "empty"}, nil); err != nil {
		t.Fatal(err)
	}
	bundles := writeBundles(t, filepath.Join(dir, "bundles"))
	col := localCollector(t)
	// A listener nobody accepts on: the kernel completes the dial and takes
	// the poll, but no reply ever comes.
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { silent.Close() })

	type tc struct {
		args   []string
		code   int
		golden string                         // fixture file stdout must equal
		check  func(t *testing.T, out string) // or a predicate on stdout
	}
	cases := []tc{
		{args: nil, code: 2},
		{args: []string{"bogus"}, code: 2},
		{args: []string{"tables"}, code: 2},
		{args: []string{"tables", "-no-such-flag", "x"}, code: 2},
		// An empty trace is an error, not an empty table.
		{args: []string{"tables", empty}, code: 1},
		{args: []string{"critical", empty}, code: 1},
		{args: []string{"tables", filepath.Join(dir, "missing.json")}, code: 1},
		{args: []string{"tables", "-label", "renamed", "-top", "3", filepath.Join(fixtures, "bfs4.json")}, check: func(t *testing.T, out string) {
			if !strings.HasPrefix(out, "trace (renamed):") || !strings.Contains(out, "9 lighter pairs elided") {
				t.Errorf("-label/-top not applied:\n%s", out)
			}
		}},
		{args: []string{"doctor", bundles}, check: func(t *testing.T, out string) {
			for _, want := range []string{"2 bundle(s)", "verdict: host 1 failed first", string(trace.TriggerInjectedFault), "failure cascade"} {
				if !strings.Contains(out, want) {
					t.Errorf("transcript missing %q:\n%s", want, out)
				}
			}
		}},
		{args: []string{"doctor", "-json", "-o", filepath.Join(dir, "final.json"), bundles}, check: func(t *testing.T, out string) {
			var d trace.Diagnosis
			if err := json.Unmarshal([]byte(out), &d); err != nil {
				t.Fatalf("diagnosis is not JSON: %v\n%s", err, out)
			}
			if d.FailedRank != 1 || len(d.Merged) != 0 {
				t.Errorf("diagnosis = rank %d with %d inline events, want rank 1 and none", d.FailedRank, len(d.Merged))
			}
			if events, _, err := trace.ReadFile(filepath.Join(dir, "final.json")); err != nil || len(events) == 0 {
				t.Errorf("-o wrote %d events (%v), want the final window", len(events), err)
			}
		}},
		{args: []string{"doctor", dir}, code: 1}, // no bundles there
		{args: []string{"top", "-once", "-o", "jsonl", col.Addr()}, check: func(t *testing.T, out string) {
			var u trace.ViewUpdate
			if err := json.Unmarshal([]byte(out), &u); err != nil {
				t.Fatalf("update is not one JSON line: %v\n%s", err, out)
			}
			if !u.Snapshot || u.Events == 0 || u.ValueBytes+u.MetaBytes+u.GIDBytes != 64 || len(u.Rounds) != 1 {
				t.Errorf("snapshot = %+v, want the local trace's one closed round and 64 bytes", u)
			}
		}},
		{args: []string{"top", "-once", col.Addr()}, check: func(t *testing.T, out string) {
			if !strings.Contains(out, "gluon-trace top — top-test") || !strings.Contains(out, "verdict: host 0 gated 1/1 rounds") {
				t.Errorf("dashboard frame:\n%q", out)
			}
		}},
		{args: []string{"top", "-once", "127.0.0.1:1"}, code: 1},
		{args: []string{"top", "-once", silent.Addr().String()}, code: 1},
	}
	for _, f := range []string{"bfs4", "pr4z"} {
		in := filepath.Join(fixtures, f+".json")
		cases = append(cases,
			tc{args: []string{"tables", in}, golden: f + ".tables.txt"},
			tc{args: []string{"tables", "-json", in}, golden: f + ".tables.json"},
			tc{args: []string{"critical", in}, golden: f + ".critical.txt"},
			tc{args: []string{"critical", "-json", in}, golden: f + ".critical.json"})
	}
	// Subtest names hide the temp dir and the ephemeral ports, so a case has
	// the same name on every run.
	stable := strings.NewReplacer(dir, "TMPDIR", col.Addr(), "COLLECTOR", silent.Addr().String(), "SILENT")
	for _, c := range cases {
		t.Run(stable.Replace(strings.Join(c.args, " ")), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, c.code, &stdout, &stderr)
			}
			if c.golden != "" {
				want, err := os.ReadFile(filepath.Join(fixtures, c.golden))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(stdout.Bytes(), want) {
					t.Errorf("output drifted from %s:\n%s", c.golden, &stdout)
				}
			}
			if c.check != nil {
				c.check(t, stdout.String())
			}
		})
	}
}

// TestCollectLostSession: a collector that lost a session still merges and
// reports what arrived, but must not exit 0.
func TestCollectLostSession(t *testing.T) {
	col, err := trace.ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One session says hello (sideband frame: 4-byte LE length, type 1, JSON)
	// and drops dead, as a kill -9'd host would.
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := []byte(`{"clock":{"host":-1,"samples":1}}`)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(1+len(hello)))
	if _, err := conn.Write(append(append(frame, 1), hello...)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if si := col.SessionInfos(); len(si) == 1 && si[0].State == "error" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead session never reached state error: %+v", col.SessionInfos())
		}
	}
	// Another runs to an orderly bye.
	tr := trace.New(trace.Config{Capacity: 16, Label: "survivor"})
	tr.Recorder(0).Emit(trace.Event{Start: 1, Dur: 1, Phase: trace.PhaseCompute})
	sh, err := trace.StartShipper(trace.ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "merged.json")
	events, meta, err := collect(context.Background(), col, 1, out, "")
	if err == nil || !strings.Contains(err.Error(), "1 shipper session(s) ended in error") {
		t.Fatalf("collect error = %v, want the lost session reported", err)
	}
	if len(events) != 1 || len(meta.Sessions) != 2 {
		t.Fatalf("collect returned %d events, %d sessions; want the survivor's event and both records", len(events), len(meta.Sessions))
	}
	if written, _, rerr := trace.ReadFile(out); rerr != nil || len(written) != 1 {
		t.Fatalf("merged export holds %d events (%v), want 1", len(written), rerr)
	}
}

// writeBundles leaves the postmortem bundles of a two-host failure under dir:
// host 1 hit an injected fault, host 0 saw its peer poisoned.
func writeBundles(t *testing.T, dir string) string {
	t.Helper()
	tr := trace.New(trace.Config{Capacity: 64, Label: "doctor-test"})
	for h := 0; h < 2; h++ {
		r := tr.Recorder(h)
		r.SetRound(2)
		r.Emit(trace.Event{Start: r.Now(), Dur: 10, Phase: trace.PhaseCompute, Peer: -1})
	}
	fr := trace.NewFlightRecorder(trace.FlightConfig{Dir: dir, Trace: tr})
	for _, info := range []trace.DumpInfo{
		{Trigger: trace.TriggerInjectedFault, Host: 1, Peer: 0, Round: 2, Phase: trace.PhaseSend, Cause: errors.New("injected kill")},
		{Trigger: trace.TriggerPeerPoison, Host: 0, Peer: 1, Round: 2, Phase: trace.PhaseRecvWait, Cause: errors.New("peer 1 poisoned")},
	} {
		if path, err := fr.Dump(info); err != nil || path == "" {
			t.Fatalf("dump %s: %q, %v", info.Trigger, path, err)
		}
	}
	return dir
}

// localCollector serves a collector that a shipper has fed one closed round
// and then left with an orderly bye.
func localCollector(t *testing.T) *trace.Collector {
	t.Helper()
	col, err := trace.ListenAndCollect("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	tr := trace.New(trace.Config{Capacity: 64, Label: "top-test"})
	r := tr.Recorder(0)
	for round := int32(0); round < 2; round++ {
		base := int64(round) * 1000
		r.SetRound(round)
		r.Emit(trace.Event{Start: base, Dur: 100, Phase: trace.PhaseCompute, Peer: -1})
		r.Emit(trace.Event{Start: base + 100, Dur: 60, Phase: trace.PhaseSync, Peer: -1})
		r.Emit(trace.Event{Start: base + 160, Dur: 40, Phase: trace.PhaseBarrier, Peer: -1})
	}
	r.Emit(trace.Event{Start: 1100, Dur: 40, Phase: trace.PhaseEncode, Peer: 1, Value: 64, Mode: 1, Lane: 1})
	sh, err := trace.StartShipper(trace.ShipperConfig{Addr: col.Addr(), Trace: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	// The session is folded once the collector has read its bye.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, done := col.Sessions(); done == 1 {
			return col
		}
		if time.Now().After(deadline) {
			t.Fatalf("shipper session never completed: %+v", col.SessionInfos())
		}
	}
}
