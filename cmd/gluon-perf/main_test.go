package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"gluon/internal/perfdb"
)

// TestPinTakesNewestFullRecord: -pin writes the newest sync-bench record,
// all of its rows, even when a later sync-guard record (auto and unopt
// only) follows it in the history. The test re-executes its own binary as
// gluon-perf, with the command line after "--".
func TestPinTakesNewestFullRecord(t *testing.T) {
	if os.Getenv("GLUON_PERF_AS_MAIN") == "1" {
		os.Args = append([]string{"gluon-perf"}, flagArgsAfterDash()...)
		main()
		return
	}
	dir := t.TempDir()
	db, out := filepath.Join(dir, "history.jsonl"), filepath.Join(dir, "pin.json")
	fp := perfdb.Probe()
	t0 := time.Date(2026, 9, 27, 9, 46, 25, 0, time.UTC)
	row := func(hosts int, enc string, ns int64) perfdb.BenchResult {
		return perfdb.BenchResult{Name: fmt.Sprintf("sync/h=%d/%s", hosts, enc),
			Hosts: hosts, Encoding: enc, NsPerOp: ns, AllocsPerOp: 22, NoiseNs: ns / 100, Reps: 8}
	}
	full := &perfdb.Record{Time: t0, Label: "sync-bench", Fingerprint: fp, Graph: "rmat scale=12 ef=8 seed=7 cvc"}
	guard := &perfdb.Record{Time: t0.Add(time.Hour), Label: "sync-guard", Fingerprint: fp, Graph: full.Graph}
	for _, h := range []int{2, 8} {
		for _, enc := range []string{"auto", "dense", "bitvec", "indices", "unopt"} {
			full.Benchmarks = append(full.Benchmarks, row(h, enc, 20000))
		}
		guard.Benchmarks = append(guard.Benchmarks, row(h, "auto", 21000), row(h, "unopt", 37000))
	}
	for _, rec := range []*perfdb.Record{full, guard} {
		if err := perfdb.Append(db, rec); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestPinTakesNewestFullRecord$", "--", "-db", db, "-pin", out)
	cmd.Env = append(os.Environ(), "GLUON_PERF_AS_MAIN=1")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gluon-perf -pin: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got perfdb.Record
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Label != "sync-bench" || !got.Time.Equal(t0) || len(got.Benchmarks) != len(full.Benchmarks) {
		t.Fatalf("pinned %q record of %v with %d rows, want the sync-bench record of %v with %d rows",
			got.Label, got.Time, len(got.Benchmarks), t0, len(full.Benchmarks))
	}
	for i, b := range got.Benchmarks {
		if b != full.Benchmarks[i] {
			t.Errorf("row %d = %+v, want %+v", i, b, full.Benchmarks[i])
		}
	}
}

// flagArgsAfterDash returns the test binary's arguments after "--".
func flagArgsAfterDash() []string {
	for i, a := range os.Args {
		if a == "--" {
			return os.Args[i+1:]
		}
	}
	return nil
}
