// Command benchmark is this repository's end-to-end, per-layer benchmark:
// four workloads shaped like the paper's evaluation cells, each run in a
// closed loop (one client, one distributed run at a time) and verified
// against the sequential reference. README.md defines every metric.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload and prints, last, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics of the traced run (--trace 1).
// Without --workload it runs all four both ways, each in a child process of
// its own, and prints a summary; -aa does that twice and compares.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
)

// The end-to-end metrics and the share of the parent's median by which each
// may get worse before a change counts as a regression; BENCHMARK.json
// repeats them and main_test.go keeps the two in step.
var endToEnd = []struct {
	name  string
	bound float64
}{
	{"run_s", 0.24},
	{"setup_s", 0.25},
}

// exactCounts must be identical between two runs of the same commit.
var exactCounts = []string{"rounds", "comm_bytes", "wire_msgs", "edges"}

func main() {
	var o options
	workload := flag.String("workload", "", "run this workload only and end with the result as one JSON line")
	flag.Uint64Var(&o.seed, "seed", 2018, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to keep measuring operations")
	trace := flag.Int("trace", 0, "1: run through the timing wrappers and report the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "shrink every graph, for a smoke test")
	aa := flag.Bool("aa", false, "run the full set twice and compare the two")
	flag.Parse()
	o.trace = *trace != 0

	if *workload != "" {
		os.Exit(single(*workload, o))
	}
	sets := 1
	if *aa {
		sets = 2
	}
	os.Exit(all(o, sets))
}

// single runs one workload in this process, the contract's way.
func single(name string, o options) int {
	s, ok := findSpec(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", name)
		return 2
	}
	if o.trace {
		o.spans = filepath.Join(".bench_build", "spans-"+name+".jsonl")
		if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	res, rcd, err := runWorkload(s, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(rcd); err != nil {
		return 1
	}
	if err := out.Encode(res); err != nil {
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// outcome is what one child run left on its last two lines.
type outcome struct {
	rcd record
	res result
}

// child runs one workload in a process of its own, so that peak_rss_mb and
// the heap are that workload's alone, and passes its report through.
func child(name string, o options, trace int) (outcome, error) {
	var out outcome
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	args := []string{"--workload", name, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	if o.quick {
		args = append(args, "--quick")
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to end
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return out, fmt.Errorf("%s --trace %d: no result (%v)", name, trace, runErr)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &out.rcd); err != nil {
		return out, err
	}
	if err := json.Unmarshal(lines[len(lines)-1], &out.res); err != nil {
		return out, err
	}
	return out, nil
}

// all runs every workload untraced and traced, sets times over, and prints
// the summary; with two sets it also prints how far the two disagree.
func all(o options, sets int) int {
	type pair struct{ e2e, layers outcome }
	runs := make([]map[string]pair, sets)
	bad := false
	for i := range runs {
		runs[i] = map[string]pair{}
		for _, s := range specs {
			var p pair
			var err error
			if p.e2e, err = child(s.name, o, 0); err == nil {
				fmt.Println()
				p.layers, err = child(s.name, o, 1)
			}
			fmt.Println()
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				bad = true
				continue
			}
			bad = bad || p.e2e.res.Failed+p.layers.res.Failed > 0 || !p.e2e.res.Correct || !p.layers.res.Correct
			runs[i][s.name] = p
		}
	}

	fmt.Println("summary (set 1)")
	fmt.Printf("  %-22s %10s %10s %8s %16s %7s\n", "workload", "setup_s", "run_s", "rounds", "failed/attempted", "trace_x")
	for _, s := range specs {
		p, ok := runs[0][s.name]
		if !ok {
			fmt.Printf("  %-22s no result\n", s.name)
			continue
		}
		m, l := p.e2e.res.Metrics, p.layers.res.Metrics
		fmt.Printf("  %-22s %10.4f %10.4f %8.0f %16s %7.3f\n", s.name, m["setup_s"].Value, m["run_s"].Value,
			l["rounds"].Value, fmt.Sprintf("%d/%d", p.e2e.res.Failed+p.layers.res.Failed,
				p.e2e.res.Attempted+p.layers.res.Attempted), l["trace_overhead"].Value)
	}
	if sets == 2 {
		fmt.Println("\nA/A: two full sets of the same commit; a time may differ by its bound, a count not at all")
		for _, s := range specs {
			a, okA := runs[0][s.name]
			b, okB := runs[1][s.name]
			if !okA || !okB {
				continue
			}
			for _, e := range endToEnd {
				va, vb := a.e2e.res.Metrics[e.name].Value, b.e2e.res.Metrics[e.name].Value
				diff := math.Abs(vb-va) / va
				verdict := "ok"
				if diff > e.bound {
					verdict, bad = "EXCEEDS", true
				}
				fmt.Printf("  %-22s %-10s %9.4f %9.4f  diff %5.1f %%  bound %4.0f %%  %s\n",
					s.name, e.name, va, vb, 100*diff, 100*e.bound, verdict)
			}
			for _, c := range exactCounts {
				va, vb := a.layers.res.Metrics[c].Value, b.layers.res.Metrics[c].Value
				verdict := "identical"
				if va != vb {
					verdict, bad = "DIFFERS", true
				}
				fmt.Printf("  %-22s %-10s %9.0f %9.0f  %s\n", s.name, c, va, vb, verdict)
			}
			verdict := "identical"
			if a.e2e.rcd.EdgeHash != b.e2e.rcd.EdgeHash {
				verdict, bad = "DIFFERS", true
			}
			fmt.Printf("  %-22s %-10s %s %s  %s\n", s.name, "edge_hash", a.e2e.rcd.EdgeHash, b.e2e.rcd.EdgeHash, verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// commit is the revision the binary was built from, when the build saw one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
