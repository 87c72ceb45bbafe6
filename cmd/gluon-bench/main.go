// Command gluon-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	gluon-bench                 # run everything at default scale
//	gluon-bench -table 3        # one table
//	gluon-bench -figure 10      # one figure
//	gluon-bench -scale 18 -hosts 1,2,4,8,16
//
// See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured outcomes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gluon/internal/bench"
	"gluon/internal/comm"
	"gluon/internal/perfdb"
	"gluon/internal/trace"
)

// logger is the CLI's structured log sink (teed into the armed flight
// recorder's recent-log ring, when one is armed).
var logger = trace.NewLogger("gluon-bench")

func main() {
	var (
		table      = flag.Int("table", 0, "run only this table (1-5)")
		figure     = flag.String("figure", "", "run only this figure (8, 9, 10), or \"ablations\" for the encoding and mirror-subset studies")
		scale      = flag.Uint("scale", 16, "graphs have 2^scale nodes")
		ef         = flag.Uint("edgefactor", 16, "average out-degree")
		hosts      = flag.String("hosts", "1,2,4,8", "comma-separated host counts")
		devices    = flag.String("devices", "1,2,4,8", "comma-separated device counts for D-IrGL")
		workers    = flag.Int("workers", 2, "workers per simulated host")
		seed       = flag.Uint64("seed", 2018, "graph generation seed")
		prIters    = flag.Int("pr-iters", 50, "pagerank iteration cap")
		prTol      = flag.Float64("pr-tol", 1e-6, "pagerank tolerance")
		netLat     = flag.Duration("net-latency", 50*time.Microsecond, "simulated per-message link latency (0 disables)")
		netBW      = flag.Float64("net-bandwidth", 50e6, "simulated link bandwidth, bytes/s (0 = infinite)")
		syncRecord = flag.Bool("sync-record", false, "run the sync hot-path microbenchmark and append it to the -perfdb history, then exit")
		perfDB     = flag.String("perfdb", "", "append sync measurements to this perfdb history file (JSONL; \"\" disables recording)")

		syncGuard = flag.String("sync-guard", "", "compare the sync hot path (tracing disabled) against this baseline record and exit non-zero on regression")
		syncTiers = flag.String("sync-tiers", "", "with -sync-record: measure only these comma-separated encodings (default: all of "+strings.Join(bench.AllSyncEncodings(), ",")+")")
		syncHosts = flag.String("sync-hosts", "2,8", "with -sync-record: comma-separated host counts to measure")

		traceOut  = flag.String("trace", "", "record every Gluon-based run into a trace file (Chrome trace_event JSON)")
		pprofAddr = flag.String("pprof-addr", "", "serve /debug/pprof/ at this address with sync phases labeled in CPU profiles")
	)
	flag.Parse()

	if *pprofAddr != "" {
		ps, err := trace.ServePprof(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer ps.Close()
		logger.Info("serving pprof (sync phases labeled gluon_phase)", "url", fmt.Sprintf("http://%s/debug/pprof/", ps.Addr()))
	}

	p := bench.DefaultParams()
	p.Scale = *scale
	p.EdgeFactor = *ef
	p.Workers = *workers
	p.Seed = *seed
	p.PRMaxIters = *prIters
	p.PRTolerance = *prTol
	p.Net = comm.NetModel{Latency: *netLat, Bandwidth: *netBW}
	var err error
	if p.Hosts, err = parseInts(*hosts); err != nil {
		fatal(err)
	}
	if p.Devices, err = parseInts(*devices); err != nil {
		fatal(err)
	}

	if *syncGuard != "" {
		if err := bench.GuardSyncBench(os.Stdout, p, *syncGuard, *perfDB); err != nil {
			fatal(err)
		}
		fmt.Println("sync hot path within tolerance of baseline ✓")
		return
	}

	var tr *trace.Trace
	if *traceOut != "" {
		tr = trace.New(trace.Config{Label: "gluon-bench sweep"})
		p.Trace = tr
	}

	if *syncRecord {
		if *perfDB == "" {
			fatal(fmt.Errorf("-sync-record needs -perfdb to record into"))
		}
		fmt.Fprintf(os.Stderr, "host fingerprint: %s\n", perfdb.Probe())
		rec, err := runSyncBench(p, *syncTiers, *syncHosts)
		if err != nil {
			fatal(fmt.Errorf("sync bench: %w", err))
		}
		rec.Label = "sync-bench"
		if err := perfdb.Append(*perfDB, rec); err != nil {
			fatal(err)
		}
		logger.Info("appended sync measurement to perf history", "path", *perfDB, "fp", rec.FingerprintID)
		return
	}

	type experiment struct {
		name string
		run  func() error
	}
	all := []experiment{
		{"table1", func() error { return bench.Table1(os.Stdout, p) }},
		{"table2", func() error { return bench.Table2(os.Stdout, p) }},
		{"table3", func() error { return bench.Table3(os.Stdout, p) }},
		{"table4", func() error { return bench.Table4(os.Stdout, p) }},
		{"table5", func() error { return bench.Table5(os.Stdout, p) }},
		{"figure8", func() error { return bench.Figure8(os.Stdout, p) }},
		{"figure9", func() error { return bench.Figure9(os.Stdout, p) }},
		{"figure10", func() error { return bench.Figure10(os.Stdout, p) }},
		{"ablations", func() error {
			if err := bench.AblationEncodings(os.Stdout, p); err != nil {
				return err
			}
			fmt.Println()
			return bench.AblationSubsets(os.Stdout, p)
		}},
	}

	want := func(name string) bool {
		if *table == 0 && *figure == "" {
			return true
		}
		if *table != 0 && name == fmt.Sprintf("table%d", *table) {
			return true
		}
		if *figure == "ablations" && name == "ablations" {
			return true
		}
		if *figure != "" && name == "figure"+strings.TrimPrefix(*figure, "figure") {
			return true
		}
		return false
	}

	ran := 0
	for _, e := range all {
		if !want(e.name) {
			continue
		}
		if ran > 0 {
			fmt.Println()
		}
		if err := e.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("no experiment matched -table %d -figure %q", *table, *figure))
	}
	if tr != nil {
		events, err := tr.WriteFile(*traceOut)
		if err != nil {
			fatal(err)
		}
		logger.Info("wrote trace", "events", events, "path", *traceOut, "analyze", "gluon-trace tables "+*traceOut)
		trace.LogDropped(logger, tr.Dropped())
	}
}

// runSyncBench measures the requested sync tiers × host counts (defaults:
// every encoding, the pinned {2,8}) and attaches the comm-probe counters.
func runSyncBench(p bench.Params, tiersCSV, hostsCSV string) (*perfdb.Record, error) {
	hosts, err := parseInts(hostsCSV)
	if err != nil {
		return nil, err
	}
	names := bench.AllSyncEncodings()
	if tiersCSV != "" {
		names = nil
		for _, t := range strings.Split(tiersCSV, ",") {
			names = append(names, strings.TrimSpace(t))
		}
	}
	rec, err := bench.SyncBenchTiers(p, hosts, names)
	if err != nil {
		return nil, err
	}
	if comm, err := bench.CommProbe(p, hosts[0]); err == nil {
		rec.Comm = comm
	} else {
		logger.Warn("comm probe failed; record carries timings only", "err", err)
	}
	return rec, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad int list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
