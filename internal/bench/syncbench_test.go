package bench

// Ratio-gate coverage with synthetic records: the gate must be invariant to
// uniform machine-speed drift (the failure mode that forced BENCH_sync.json
// re-pins on PRs 5, 8, and 9) while still catching a same-process slowdown
// of an optimized tier. The committed baseline itself must decode as a
// record the guard can gate on.

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"gluon/internal/perfdb"
)

// synthRecord builds a sync-bench record; ns maps "h=<hosts>/<enc>" to
// ns/op, with 1% recorded noise and the allocs the real tiers show.
func synthRecord(fp perfdb.Fingerprint, ns map[string]int64, allocs map[string]int64) *perfdb.Record {
	rec := &perfdb.Record{
		Label:         "sync-bench",
		Fingerprint:   fp,
		FingerprintID: fp.ID(),
		Graph:         "rmat scale=12 ef=8 seed=7 cvc",
	}
	for _, row := range []struct {
		hosts int
		enc   string
	}{
		{2, "auto"}, {2, "unopt"}, {2, "dense"},
		{8, "auto"}, {8, "unopt"}, {8, "dense"},
	} {
		name := syncName(row.hosts, row.enc)
		key := strings.TrimPrefix(name, "sync/")
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
		rec.Benchmarks = append(rec.Benchmarks, perfdb.BenchResult{
			Name: name, Hosts: row.hosts, Encoding: row.enc,
			NsPerOp: v, BytesPerOp: 2048, AllocsPerOp: a,
			NoiseNs: v / 100, Reps: 8,
		})
	}
	return rec
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
	base := synthRecord(fpA, synthNs, nil)
	for _, scale := range []struct {
		name     string
		num, den int64
	}{{"2x faster", 1, 2}, {"2x slower", 2, 1}, {"unchanged", 1, 1}} {
		cur := synthRecord(fpB, scaleNs(synthNs, scale.num, scale.den), nil)
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
	base := synthRecord(fp, synthNs, nil)
	bad := scaleNs(synthNs, 1, 1)
	bad["h=2/auto"] = bad["h=2/auto"] * 110 / 100
	cur := synthRecord(fp, bad, nil)
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
	drift := synthRecord(fp, scaleNs(synthNs, 110, 100), nil)
	if err := CompareSyncRatios(base, drift, 0.05); err != nil {
		t.Fatalf("uniform 10%% drift flagged: %v", err)
	}
}

// TestCompareSyncRatiosAllocsHardFail: allocation growth fails the gate,
// reference row included, regardless of tolerance or noise.
func TestCompareSyncRatiosAllocsHardFail(t *testing.T) {
	fp := perfdb.Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthRecord(fp, synthNs, nil)
	cur := synthRecord(fp, synthNs, map[string]int64{"h=8/unopt": 27})
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
	base := synthRecord(pin, synthNs, map[string]int64{"h=8/auto": 130, "h=8/unopt": 130})
	wider := map[string]int64{"h=8/auto": 178, "h=8/unopt": 178}
	if err := CompareSyncRatios(base, synthRecord(wide, synthNs, wider), 0.05); err != nil {
		t.Fatalf("allocs gated against a pin taken at another GOMAXPROCS: %v", err)
	}
	if err := CompareSyncRatios(base, synthRecord(pin, synthNs, wider), 0.05); err == nil {
		t.Fatal("alloc growth at the pin's own GOMAXPROCS passed")
	}
	slow := scaleNs(synthNs, 1, 1)
	slow["h=8/auto"] = slow["h=8/auto"] * 130 / 100
	err := CompareSyncRatios(base, synthRecord(wide, slow, wider), 0.05)
	if err == nil || !strings.Contains(err.Error(), "hosts=8 auto") || strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("ratio regression at another width: got %v, want hosts=8 auto flagged on ratio alone", err)
	}
}

// TestCompareSyncRatiosNoiseWidening: a wobble inside the recorded noise
// band passes; the band is capped so recorded garbage noise cannot
// neutralize the gate.
func TestCompareSyncRatiosNoiseWidening(t *testing.T) {
	fp := perfdb.Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	base := synthRecord(fp, synthNs, nil)
	// +7% on one tier with ~4×1% noise contributions and tol 5% → inside
	// the widened band.
	wobble := scaleNs(synthNs, 1, 1)
	wobble["h=2/auto"] = wobble["h=2/auto"] * 107 / 100
	if err := CompareSyncRatios(base, synthRecord(fp, wobble, nil), 0.05); err != nil {
		t.Fatalf("in-band wobble flagged: %v", err)
	}
	// +45% with absurd recorded noise still fails: the cap holds the band
	// at tol + 25%.
	bad := scaleNs(synthNs, 1, 1)
	bad["h=2/auto"] = bad["h=2/auto"] * 145 / 100
	cur := synthRecord(fp, bad, nil)
	for i := range cur.Benchmarks {
		cur.Benchmarks[i].NoiseNs = cur.Benchmarks[i].NsPerOp // 100% "noise"
	}
	if err := CompareSyncRatios(base, cur, 0.05); err == nil {
		t.Fatal("noise cap did not hold; gate neutralized itself")
	}
}

// TestCommittedBaseline: the BENCH_sync.json at the repo root decodes as a
// perfdb record holding every row the guard measures, and gates clean
// against itself with no tolerance.
func TestCommittedBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_sync.json")
	if err != nil {
		t.Fatal(err)
	}
	var base perfdb.Record
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	idx := rowIndex(&base)
	for _, h := range guardHosts {
		for _, tier := range guardTiers {
			r := idx[syncName(h, tier)]
			if r == nil || r.Hosts != h || r.Encoding != tier || r.NsPerOp <= 0 {
				t.Errorf("baseline row %s = %+v, want hosts %d, encoding %s, ns/op > 0", syncName(h, tier), r, h, tier)
			}
		}
	}
	if err := CompareSyncRatios(&base, &base, 0); err != nil {
		t.Fatalf("committed baseline does not gate clean against itself: %v", err)
	}
}
