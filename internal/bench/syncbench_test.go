package bench

// Ratio-gate and perfdb-plumbing coverage with synthetic reports: the gate
// must be invariant to uniform machine-speed drift (the failure mode that
// forced BENCH_sync.json re-pins on PRs 5, 8, and 9) while still catching
// a same-process slowdown of an optimized tier, and the report ↔ history
// record converters must round-trip.

import (
	"strings"
	"testing"

	"gluon/internal/perfdb"
)

// synthReport builds a schema-v2 report; ns maps "h=<hosts>/<enc>" to
// ns/op, with 1% recorded noise and the allocs the real tiers show.
func synthReport(fp perfdb.Fingerprint, ns map[string]int64, allocs map[string]int64) *SyncBenchReport {
	rep := &SyncBenchReport{
		Schema:        SyncReportSchema,
		Graph:         "rmat scale=12 ef=8 seed=7 cvc",
		Workers:       0,
		Fingerprint:   &fp,
		FingerprintID: fp.ID(),
	}
	for _, row := range []struct {
		hosts int
		enc   string
	}{
		{2, "auto"}, {2, "unopt"}, {2, "dense"},
		{8, "auto"}, {8, "unopt"}, {8, "dense"},
	} {
		key := (&SyncBenchResult{Hosts: row.hosts, Encoding: row.enc}).Name()
		key = strings.TrimPrefix(key, "sync/")
		v, ok := ns[key]
		if !ok {
			continue
		}
		a := int64(26)
		if allocs != nil {
			if av, ok := allocs[key]; ok {
				a = av
			}
		}
		rep.Results = append(rep.Results, SyncBenchResult{
			Hosts: row.hosts, Encoding: row.enc,
			NsPerOp: v, BytesPerOp: 2048, AllocsPerOp: a,
			NoiseNs: v / 100, Reps: 8,
		})
	}
	return rep
}

var synthNs = map[string]int64{
	"h=2/auto": 21000, "h=2/unopt": 37000, "h=2/dense": 30000,
	"h=8/auto": 90000, "h=8/unopt": 160000, "h=8/dense": 130000,
}

func scaleNs(ns map[string]int64, num, den int64) map[string]int64 {
	out := make(map[string]int64, len(ns))
	for k, v := range ns {
		out[k] = v * num / den
	}
	return out
}

// TestCompareSyncRatiosMachineDrift: a machine 2× as fast (or 2× as slow)
// halves/doubles every row; the ratios cancel the drift, so the gate holds
// with no re-pin.
func TestCompareSyncRatiosMachineDrift(t *testing.T) {
	fpA := perfdb.Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	fpB := perfdb.Fingerprint{CPUModel: "New Epyc", Cores: 32, GOMAXPROCS: 32, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthReport(fpA, synthNs, nil)
	for _, scale := range []struct {
		name     string
		num, den int64
	}{{"2x faster", 1, 2}, {"2x slower", 2, 1}, {"unchanged", 1, 1}} {
		cur := synthReport(fpB, scaleNs(synthNs, scale.num, scale.den), nil)
		if err := CompareSyncRatios(base, cur, 0.10); err != nil {
			t.Fatalf("%s machine flagged by ratio gate: %v", scale.name, err)
		}
	}
}

// TestCompareSyncRatiosOptRegression: a 10% slowdown of one optimized tier
// with the reference unchanged must fail, naming the tier; the same
// slowdown applied to every row (pure machine drift) must not.
func TestCompareSyncRatiosOptRegression(t *testing.T) {
	fp := perfdb.Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthReport(fp, synthNs, nil)
	bad := scaleNs(synthNs, 1, 1)
	bad["h=2/auto"] = bad["h=2/auto"] * 110 / 100
	cur := synthReport(fp, bad, nil)
	err := CompareSyncRatios(base, cur, 0.05)
	if err == nil {
		t.Fatal("10% optimized-path regression passed the ratio gate")
	}
	if !strings.Contains(err.Error(), "hosts=2 auto") {
		t.Fatalf("violation does not name the tier: %v", err)
	}
	if strings.Contains(err.Error(), "dense") {
		t.Fatalf("unregressed tier flagged: %v", err)
	}
	drift := synthReport(fp, scaleNs(synthNs, 110, 100), nil)
	if err := CompareSyncRatios(base, drift, 0.05); err != nil {
		t.Fatalf("uniform 10%% drift flagged: %v", err)
	}
}

// TestCompareSyncRatiosAllocsHardFail: allocation growth fails the gate,
// reference row included, regardless of tolerance or noise.
func TestCompareSyncRatiosAllocsHardFail(t *testing.T) {
	fp := perfdb.Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthReport(fp, synthNs, nil)
	cur := synthReport(fp, synthNs, map[string]int64{"h=8/unopt": 27})
	err := CompareSyncRatios(base, cur, 10.0)
	if err == nil {
		t.Fatal("alloc regression passed the ratio gate")
	}
	if !strings.Contains(err.Error(), "hosts=8 unopt") || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("alloc violation not pinned: %v", err)
	}
}

// TestCompareSyncRatiosAllocsKeyedByWidth: allocs/op of a sync grow with the
// scheduler width, so against a baseline pinned at another GOMAXPROCS the
// alloc comparison is skipped — the ratio gate is not.
func TestCompareSyncRatiosAllocsKeyedByWidth(t *testing.T) {
	pin := perfdb.Fingerprint{CPUModel: "Old Xeon", Cores: 2, GOMAXPROCS: 1, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	wide := pin
	wide.GOMAXPROCS = 2
	base := synthReport(pin, synthNs, map[string]int64{"h=8/auto": 130, "h=8/unopt": 130})
	wider := map[string]int64{"h=8/auto": 178, "h=8/unopt": 178}
	if err := CompareSyncRatios(base, synthReport(wide, synthNs, wider), 0.05); err != nil {
		t.Fatalf("allocs gated against a pin taken at another GOMAXPROCS: %v", err)
	}
	if err := CompareSyncRatios(base, synthReport(pin, synthNs, wider), 0.05); err == nil {
		t.Fatal("alloc growth at the pin's own GOMAXPROCS passed")
	}
	slow := scaleNs(synthNs, 1, 1)
	slow["h=8/auto"] = slow["h=8/auto"] * 130 / 100
	err := CompareSyncRatios(base, synthReport(wide, slow, wider), 0.05)
	if err == nil || !strings.Contains(err.Error(), "hosts=8 auto") || strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("ratio regression at another width: got %v, want hosts=8 auto flagged on ratio alone", err)
	}
}

// TestCompareSyncRatiosNoiseWidening: a wobble inside the recorded noise
// band passes; the band is capped so recorded garbage noise cannot
// neutralize the gate.
func TestCompareSyncRatiosNoiseWidening(t *testing.T) {
	fp := perfdb.Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthReport(fp, synthNs, nil)
	// +7% on one tier with ~4×1% noise contributions and tol 5% → inside
	// the widened band.
	wobble := scaleNs(synthNs, 1, 1)
	wobble["h=2/auto"] = wobble["h=2/auto"] * 107 / 100
	if err := CompareSyncRatios(base, synthReport(fp, wobble, nil), 0.05); err != nil {
		t.Fatalf("in-band wobble flagged: %v", err)
	}
	// +45% with absurd recorded noise still fails: the cap holds the band
	// at tol + 25%.
	bad := scaleNs(synthNs, 1, 1)
	bad["h=2/auto"] = bad["h=2/auto"] * 145 / 100
	cur := synthReport(fp, bad, nil)
	for i := range cur.Results {
		cur.Results[i].NoiseNs = cur.Results[i].NsPerOp // 100% "noise"
	}
	if err := CompareSyncRatios(base, cur, 0.05); err == nil {
		t.Fatal("noise cap did not hold; gate neutralized itself")
	}
}

// TestReportRecordRoundTrip: report → history record → report preserves
// every gate-relevant field, so a BENCH_sync.json pinned via
// `gluon-perf -pin` gates identically to one written directly.
func TestReportRecordRoundTrip(t *testing.T) {
	fp := perfdb.Probe()
	rep := synthReport(fp, synthNs, nil)
	rep.Comm = &perfdb.Comm{BytesPerRound: 2048, InvariantSkipShare: 0.33}
	rec := rep.Record("sync-bench")
	if rec.Graph != rep.Graph || rec.Workers != rep.Workers || len(rec.Benchmarks) != len(rep.Results) {
		t.Fatalf("record header mismatch: %+v", rec)
	}
	back, err := ReportFromRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if back.FingerprintID != rep.FingerprintID || back.Schema != SyncReportSchema {
		t.Fatalf("round-trip header mismatch: %+v", back)
	}
	if len(back.Results) != len(rep.Results) {
		t.Fatalf("round-trip lost rows: %d != %d", len(back.Results), len(rep.Results))
	}
	for i := range rep.Results {
		if back.Results[i] != rep.Results[i] {
			t.Fatalf("row %d mismatch: %+v != %+v", i, back.Results[i], rep.Results[i])
		}
	}
	if *back.Comm != *rep.Comm {
		t.Fatalf("comm mismatch: %+v != %+v", back.Comm, rep.Comm)
	}
	if err := CompareSyncRatios(rep, back, 0.0); err != nil {
		t.Fatalf("round-tripped report does not gate clean against itself: %v", err)
	}
}

// TestCommProbe: the traced probe yields live counters — nonzero
// bytes/round and the deliberate silent rounds
// (every third) surfacing as a nonzero invariant-skip share.
func TestCommProbe(t *testing.T) {
	p := TestParams()
	c, err := CommProbe(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.BytesPerRound <= 0 {
		t.Fatalf("bytes/round = %v, want > 0", c.BytesPerRound)
	}
	// 2 silent rounds of 6; allow slack for round attribution at the edges
	// but the share must be clearly nonzero.
	if c.InvariantSkipShare < 0.2 || c.InvariantSkipShare > 0.5 {
		t.Fatalf("invariant skip share = %v, want ~1/3", c.InvariantSkipShare)
	}
}
