package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// quick runs one workload at -quick size, as `benchmark -quick` would.
func quick(t *testing.T, s spec, trace bool) (result, record) {
	t.Helper()
	o := options{seed: 2018, seconds: 0.1, trace: trace, quick: true}
	if trace {
		o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	res, rcd, err := runWorkload(s, o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
		t.Fatalf("%s: correct=%v failed/attempted=%d/%d", s.name, res.Correct, res.Failed, res.Attempted)
	}
	if trace {
		if fi, err := os.Stat(o.spans); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written (%v)", s.name, err)
		}
	}
	return res, rcd
}

// The smoke test: every workload, both ways, at -quick size, verified, with
// no failed operation. It takes ~2 s (not asserted: the race detector and a
// busy box both stretch it), so it can run with the unit tests.
func TestQuickSmoke(t *testing.T) {
	for _, s := range specs {
		res, _ := quick(t, s, false)
		for _, e := range endToEnd {
			if m := res.Metrics[e.name]; m.Value <= 0 || m.Unit != "s" {
				t.Errorf("%s: %s = %+v", s.name, e.name, m)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: --trace 0 printed %d metrics, want the %d end-to-end ones", s.name, len(res.Metrics), len(endToEnd))
		}
		res, _ = quick(t, s, true)
		if res.Metrics["rounds"].Value < 1 || res.Metrics["comm_bytes"].Value < 1 || res.Metrics["wire_msgs"].Value < 1 {
			t.Errorf("%s: counts missing from %v", s.name, res.Metrics)
		}
		if _, ok := res.Metrics["run_s"]; ok {
			t.Errorf("%s: --trace 1 printed an end-to-end metric", s.name)
		}
	}
}

// The same seed is the same input; another seed is another.
func TestSeedMakesTheInputs(t *testing.T) {
	for _, s := range specs {
		_, a := quick(t, s, false)
		_, b := quick(t, s, false)
		if a.EdgeHash != b.EdgeHash || !slices.Equal(a.Sources, b.Sources) {
			t.Errorf("%s: seed %d gave two different inputs", s.name, a.Seed)
		}
		o := options{seed: 99, seconds: 0.1, quick: true}
		_, c, err := runWorkload(s, o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if c.EdgeHash == a.EdgeHash && slices.Equal(a.Sources, c.Sources) {
			t.Errorf("%s: seeds %d and %d gave the same inputs", s.name, a.Seed, c.Seed)
		}
	}
}

// Every source on the grid has the same eccentricity, so every seed's bfs
// takes the same number of rounds.
func TestGridSourcesShareEccentricity(t *testing.T) {
	s, _ := findSpec("bfs-grid-oec-tcp")
	s.scale = s.quickScale
	rounds := map[float64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		res, _, err := runWorkload(s, options{seed: seed, seconds: 0.05, trace: true, quick: true}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		rounds[res.Metrics["rounds"].Value] = true
	}
	if len(rounds) != 1 {
		t.Errorf("bfs rounds vary with the seed: %v", rounds)
	}
}

// BENCHMARK.json repeats the workloads, the end-to-end bounds and the
// per-layer metric names; it must say what the program does.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(decl.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := decl.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
	}
	bounds := map[string]float64{}
	for _, e := range endToEnd {
		bounds[e.name] = e.bound
	}
	for _, m := range decl.EndToEnd {
		if b, ok := bounds[m.Name]; !ok || b != m.Bound || m.Unit != "s" || m.Better != "lower" {
			t.Errorf("end_to_end %+v does not match the program's bound %v", m, b)
		}
		delete(bounds, m.Name)
	}
	if len(bounds) != 0 {
		t.Errorf("end-to-end metrics missing from BENCHMARK.json: %v", bounds)
	}

	res, _ := quick(t, specs[0], true)
	var want, got []string
	for name, m := range res.Metrics {
		want = append(want, name+" "+m.Unit)
	}
	for _, m := range decl.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("per_layer lists %v, --trace 1 prints %v", got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("per_layer has %q where --trace 1 prints %q", got[i], want[i])
		}
	}
}

// quantile must agree with Python's statistics.quantiles(x, n=4), which is
// what accepts or rejects the benchmark.
func TestQuantileMatchesPython(t *testing.T) {
	x := sample{0.61, 0.58, 0.64, 0.60, 0.59, 0.66, 0.57, 0.62, 0.63, 0.60}
	// statistics.quantiles(x, n=4) == [0.5875, 0.605, 0.6325]
	for i, want := range []float64{0.5875, 0.605, 0.6325} {
		if got := x.quantile(i + 1); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
}
