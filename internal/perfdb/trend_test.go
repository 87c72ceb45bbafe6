package perfdb

import (
	"strings"
	"testing"
	"time"
)

// synthHistory builds a history of n records on fp, each benchmark at a
// fixed ns/op with ~1% recorded noise.
func synthHistory(fp Fingerprint, start time.Time, n int, ns map[string]int64) []Record {
	var recs []Record
	for i := 0; i < n; i++ {
		rec := Record{
			Schema:        Schema,
			Time:          start.Add(time.Duration(i) * time.Hour),
			Label:         "sync-guard",
			Fingerprint:   fp,
			FingerprintID: fp.ID(),
		}
		for _, name := range sortedKeys(ns) {
			rec.Benchmarks = append(rec.Benchmarks, BenchResult{
				Name: name, NsPerOp: ns[name], AllocsPerOp: 26, NoiseNs: ns[name] / 100, Reps: 8,
			})
		}
		recs = append(recs, rec)
	}
	return recs
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

var (
	fpOld = Fingerprint{CPUModel: "Old Xeon", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	fpNew = Fingerprint{CPUModel: "New Epyc", Cores: 32, GOMAXPROCS: 32, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
)

// TestCheckPassesAcrossMachineDrift: the history moves to a machine 2× as
// fast — every number halves — and the check must stay green, because
// comparison never crosses fingerprints.
func TestCheckPassesAcrossMachineDrift(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := synthHistory(fpOld, t0, 5, map[string]int64{"sync/h=2/auto": 21000, "sync/h=2/unopt": 37000})
	fast := synthHistory(fpNew, t0.Add(240*time.Hour), 1, map[string]int64{"sync/h=2/auto": 10500, "sync/h=2/unopt": 18500})
	recs = append(recs, fast...)
	if regs := Check(recs, CheckOptions{}); len(regs) != 0 {
		t.Fatalf("2x machine drift flagged as regression: %v", regs)
	}
	// And once the new machine has its own history, it gates on itself.
	recs = append(recs, synthHistory(fpNew, t0.Add(241*time.Hour), 3, map[string]int64{"sync/h=2/auto": 10400, "sync/h=2/unopt": 18600})...)
	if regs := Check(recs, CheckOptions{}); len(regs) != 0 {
		t.Fatalf("steady new-machine history flagged: %v", regs)
	}
}

// TestCheckFlagsSameFingerprintRegression: a 10% slowdown of the optimized
// path on the same machine must fail, naming the benchmark.
func TestCheckFlagsSameFingerprintRegression(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := synthHistory(fpOld, t0, 6, map[string]int64{"sync/h=2/auto": 21000, "sync/h=2/unopt": 37000})
	bad := synthHistory(fpOld, t0.Add(100*time.Hour), 1, map[string]int64{"sync/h=2/auto": 23100, "sync/h=2/unopt": 37000})
	recs = append(recs, bad...)
	regs := Check(recs, CheckOptions{})
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want exactly the injected one: %v", len(regs), regs)
	}
	r := regs[0]
	if r.Name != "sync/h=2/auto" {
		t.Fatalf("flagged %q, want sync/h=2/auto", r.Name)
	}
	if r.AllocRegression {
		t.Fatal("misclassified as alloc regression")
	}
	if r.DeltaFrac < 0.09 || r.DeltaFrac > 0.11 {
		t.Fatalf("delta = %.3f, want ~0.10", r.DeltaFrac)
	}
	msg := r.String()
	if !strings.Contains(msg, "sync/h=2/auto") || !strings.Contains(msg, "REGRESSION") {
		t.Fatalf("message does not pin the benchmark: %q", msg)
	}
	if r.Trend == "" || !strings.ContainsAny(r.Trend, "▁▂▃▄▅▆▇█") {
		t.Fatalf("no trend line rendered: %q", msg)
	}
}

// TestCheckFlagsAllocRegression: an allocs/op increase fails regardless of
// how wide the noise band is.
func TestCheckFlagsAllocRegression(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := synthHistory(fpOld, t0, 4, map[string]int64{"sync/h=2/auto": 21000})
	bad := synthHistory(fpOld, t0.Add(100*time.Hour), 1, map[string]int64{"sync/h=2/auto": 21000})
	bad[0].Benchmarks[0].AllocsPerOp = 27
	bad[0].Benchmarks[0].NoiseNs = 21000 // absurd noise must not excuse allocs
	recs = append(recs, bad...)
	regs := Check(recs, CheckOptions{})
	if len(regs) != 1 || !regs[0].AllocRegression {
		t.Fatalf("alloc regression not flagged: %v", regs)
	}
	if regs[0].BaseAllocs != 26 || regs[0].LatestAllocs != 27 {
		t.Fatalf("alloc counts wrong: %+v", regs[0])
	}
}

// TestCheckToleratesNoiseWithinBand: a 3% wobble on a series that records
// ~1% noise stays green under the default 5% tolerance.
func TestCheckToleratesNoiseWithinBand(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := synthHistory(fpOld, t0, 5, map[string]int64{"sync/h=2/auto": 21000})
	wobble := synthHistory(fpOld, t0.Add(100*time.Hour), 1, map[string]int64{"sync/h=2/auto": 21630})
	recs = append(recs, wobble...)
	if regs := Check(recs, CheckOptions{}); len(regs) != 0 {
		t.Fatalf("3%% wobble flagged: %v", regs)
	}
}

// TestCheckNoiseBandIsCapped: recorded noise cannot widen the band past
// MaxNoiseFrac and self-disable the gate.
func TestCheckNoiseBandIsCapped(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := synthHistory(fpOld, t0, 5, map[string]int64{"sync/h=2/auto": 21000})
	for i := range recs {
		recs[i].Benchmarks[0].NoiseNs = 50000 // garbage noise, > 100% of the value
	}
	bad := synthHistory(fpOld, t0.Add(100*time.Hour), 1, map[string]int64{"sync/h=2/auto": 30000}) // +43%
	bad[0].Benchmarks[0].NoiseNs = 50000
	recs = append(recs, bad...)
	regs := Check(recs, CheckOptions{})
	if len(regs) != 1 {
		t.Fatalf("capped band did not flag a +43%% regression: %v", regs)
	}
	if regs[0].BandFrac > 0.31 {
		t.Fatalf("band = %.2f, want <= tol+MaxNoiseFrac", regs[0].BandFrac)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]int64{10, 10, 10, 20}, 0)
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline %q has wrong width", s)
	}
	r := []rune(s)
	if r[0] != '▁' || r[3] != '█' {
		t.Fatalf("sparkline %q does not span min..max", s)
	}
	if Sparkline(nil, 5) != "" {
		t.Fatal("empty series should render empty")
	}
	if got := Sparkline([]int64{10, 20, 30, 40}, 2); len([]rune(got)) != 2 {
		t.Fatalf("window not applied: %q", got)
	}
}

func TestWriteTrendsSmoke(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := synthHistory(fpOld, t0, 5, map[string]int64{"sync/h=2/auto": 21000, "sync/h=2/unopt": 37000})
	recs = append(recs, synthHistory(fpNew, t0.Add(240*time.Hour), 2, map[string]int64{"sync/h=2/auto": 10500})...)
	var sb strings.Builder
	if err := WriteTrends(&sb, recs, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{fpOld.ID(), fpNew.ID(), "sync/h=2/auto", "sync/h=2/unopt", "trend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trend output missing %q:\n%s", want, out)
		}
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Fatalf("no sparklines in trend output:\n%s", out)
	}
}
