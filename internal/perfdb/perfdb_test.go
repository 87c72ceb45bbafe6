package perfdb

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testRecord(fp Fingerprint, t0 time.Time, nsAuto, nsUnopt int64) *Record {
	return &Record{
		Time:        t0,
		Label:       "sync-guard",
		Fingerprint: fp,
		Graph:       "rmat scale=12 ef=8 seed=7 cvc",
		Benchmarks: []BenchResult{
			{Name: "sync/h=2/auto", Hosts: 2, Encoding: "auto", NsPerOp: nsAuto, AllocsPerOp: 26, NoiseNs: nsAuto / 100, Reps: 8},
			{Name: "sync/h=2/unopt", Hosts: 2, Encoding: "unopt", NsPerOp: nsUnopt, AllocsPerOp: 30, NoiseNs: nsUnopt / 100, Reps: 8},
		},
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	fp := Probe()
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	want := []*Record{
		testRecord(fp, t0, 21000, 37000),
		testRecord(fp, t0.Add(time.Hour), 21500, 37400),
	}
	for _, r := range want {
		if err := Append(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Schema != Schema {
			t.Errorf("record %d schema = %d, want %d", i, g.Schema, Schema)
		}
		if g.FingerprintID != fp.ID() {
			t.Errorf("record %d fp = %q, want %q", i, g.FingerprintID, fp.ID())
		}
		if !g.Time.Equal(w.Time) || g.Label != w.Label || g.Graph != w.Graph {
			t.Errorf("record %d header mismatch: %+v", i, g)
		}
		if len(g.Benchmarks) != 2 || g.Benchmarks[0] != w.Benchmarks[0] || g.Benchmarks[1] != w.Benchmarks[1] {
			t.Errorf("record %d benchmarks mismatch: %+v", i, g.Benchmarks)
		}
	}
}

// TestReadToleratesTornTrailingRecord simulates a crash mid-append: the
// final line is a truncated JSON object. Intact records must still load,
// with the tear counted, and a subsequent append must resume cleanly.
func TestReadToleratesTornTrailingRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	fp := Probe()
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	if err := Append(path, testRecord(fp, t0, 21000, 37000)); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, testRecord(fp, t0.Add(time.Hour), 21100, 37100)); err != nil {
		t.Fatal(err)
	}
	// Tear: half of a record, no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":1,"time":"2026-08-01T14:0`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("got %d records, %d skipped; want 2 records, 1 skipped", len(recs), skipped)
	}
	// The history must remain appendable after a tear: Append terminates
	// the torn fragment so the new record lands on its own line.
	if err := Append(path, testRecord(fp, t0.Add(2*time.Hour), 21200, 37200)); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err = Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || skipped != 1 {
		t.Fatalf("after resume: got %d records, %d skipped; want 3 records, 1 skipped", len(recs), skipped)
	}
}

// TestReadSkipsCorruptAndForeignLines: mid-file corruption and
// future-schema records skip without poisoning their neighbors.
func TestReadSkipsCorruptAndForeignLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	fp := Probe()
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	if err := Append(path, testRecord(fp, t0, 21000, 37000)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json at all\n")
	f.WriteString(`{"schema":999,"benchmarks":[]}` + "\n")
	f.Close()
	if err := Append(path, testRecord(fp, t0.Add(time.Hour), 21100, 37100)); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || skipped != 2 {
		t.Fatalf("got %d records, %d skipped; want 2 records, 2 skipped", len(recs), skipped)
	}
	if !recs[1].Time.After(recs[0].Time) {
		t.Fatalf("records out of order: %v then %v", recs[0].Time, recs[1].Time)
	}
}

// TestFingerprintStability: repeated probes on the same host in the same
// process must agree — the ID is the history's grouping key, so any drift
// would shatter series.
func TestFingerprintStability(t *testing.T) {
	a, b := Probe(), Probe()
	if a != b {
		t.Fatalf("probe drift: %+v vs %+v", a, b)
	}
	if a.ID() != b.ID() {
		t.Fatalf("ID drift: %s vs %s", a.ID(), b.ID())
	}
	if a.ID() == "" || len(a.ID()) != 12 {
		t.Fatalf("bad ID %q", a.ID())
	}
	if a.Cores <= 0 || a.GOMAXPROCS <= 0 || a.GoVersion == "" || a.CPUModel == "" {
		t.Fatalf("incomplete fingerprint: %+v", a)
	}
	// Different hardware must produce a different ID.
	c := a
	c.Cores = a.Cores + 1
	if c.ID() == a.ID() {
		t.Fatal("core-count change did not change the ID")
	}
}

func TestMAD(t *testing.T) {
	if got := MAD([]int64{100, 102, 98, 101, 250}); got != 1 {
		t.Fatalf("MAD = %d, want 1 (robust to the 250 outlier)", got)
	}
	if got := MAD([]int64{100}); got != 0 {
		t.Fatalf("MAD of singleton = %d, want 0", got)
	}
}

func TestLatest(t *testing.T) {
	fp := Probe()
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	a := testRecord(fp, t0, 21000, 37000)
	a.Label = "sync-bench"
	b := testRecord(fp, t0.Add(time.Hour), 21100, 37100)
	recs := []Record{*a, *b}
	for i := range recs {
		recs[i].FingerprintID = fp.ID()
	}
	got, err := Latest(recs, "sync-bench", "")
	if err != nil || !got.Time.Equal(t0) {
		t.Fatalf("Latest(sync-bench) = %v, %v", got, err)
	}
	got, err = Latest(recs, "", fp.ID())
	if err != nil || !got.Time.Equal(t0.Add(time.Hour)) {
		t.Fatalf("Latest(fp) = %v, %v", got, err)
	}
	if _, err := Latest(recs, "nope", ""); err != ErrEmpty {
		t.Fatalf("Latest(nope) err = %v, want ErrEmpty", err)
	}
}

// TestReadKeepsOlderLines: a line written before the DEFLATE tier left the
// substrate — comp-* benchmark rows — before the sync_workers field went
// and while records still carried a comm block still loads: the row names
// are data and the keys are ignored.
func TestReadKeepsOlderLines(t *testing.T) {
	const old = `{"schema":1,"time":"2026-08-08T20:54:19Z","label":"sync-bench","fp":"bf68d75a39bd","graph":"rmat scale=12 ef=8 seed=7 cvc","sync_workers":0,"benchmarks":[{"name":"sync/h=2/auto","hosts":2,"encoding":"auto","ns_per_op":20617},{"name":"sync/h=2/comp-static","hosts":2,"encoding":"comp-static","ns_per_op":49214}],"comm":{"bytes_per_round":191.5,"compression_ratio":6.7,"invariant_skip_share":0.33}}` + "\n"
	path := filepath.Join(t.TempDir(), "db.jsonl")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := Read(path)
	if err != nil || skipped != 0 || len(recs) != 1 {
		t.Fatalf("Read = %d records, %d skipped, err %v; want 1, 0, nil", len(recs), skipped, err)
	}
	r := recs[0]
	if len(r.Benchmarks) != 2 || r.Benchmarks[1].Encoding != "comp-static" {
		t.Errorf("benchmarks = %+v, want both rows kept", r.Benchmarks)
	}
}

// FuzzRead: a history file is whatever a crash or a stray edit left, so no
// byte string may panic Read, and the records it accepts must go through
// every reader of a history — the series, the regression check and the
// trend report — without panicking either.
func FuzzRead(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_history.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f.Add(line)
	f.Add(line[:len(line)/2]) // a torn append
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "history.jsonl") // one worker runs one input at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		SeriesOf(recs)
		Check(recs, CheckOptions{})
		if err := WriteTrends(io.Discard, recs, 8); err != nil {
			t.Fatal(err)
		}
	})
}
