// Command gluon-run executes one distributed graph analytics configuration
// and reports time, rounds, and communication volume.
//
// Usage:
//
//	gluon-run -system d-galois -bench bfs -policy cvc -hosts 8 -scale 18
//	gluon-run -system gemini  -bench pr  -hosts 4
//	gluon-run -bench sssp -graph webcrawl -unopt        # optimizations off
//	gluon-run -bench bfs -input edges.txt               # load an edge list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gluon"
	"gluon/internal/ckpt"
	"gluon/internal/comm"
	"gluon/internal/gemini"
	"gluon/internal/gio"
	"gluon/internal/trace"
	"gluon/internal/validate"
)

// logger is the CLI's structured log sink: compact stderr lines that the
// armed flight recorder also tees into postmortem bundles.
var logger = trace.NewLogger("gluon-run")

func main() {
	var (
		system   = flag.String("system", "d-galois", "d-ligra | d-galois | d-irgl | gemini")
		benchFlg = flag.String("bench", "bfs", "bfs | cc | pr | sssp | kcore | bc")
		kFlag    = flag.Uint64("k", 4, "core number for -bench kcore")
		policy   = flag.String("policy", "cvc", "oec | iec | cvc | hvc | auto (probe all, pick by volume)")
		hosts    = flag.Int("hosts", 4, "number of simulated hosts")
		workers  = flag.Int("workers", 0, "workers per host (0 = GOMAXPROCS)")
		scale    = flag.Uint("scale", 16, "generated graphs have 2^scale nodes")
		ef       = flag.Uint("edgefactor", 16, "average out-degree")
		kind     = flag.String("graph", "rmat", "rmat | kron | webcrawl | twitterlike | random | grid")
		input    = flag.String("input", "", "load a text edge list instead of generating")
		seed     = flag.Uint64("seed", 2018, "generation seed")
		unopt    = flag.Bool("unopt", false, "disable Gluon's communication optimizations")
		verify   = flag.Bool("verify", false, "collect values and print a result digest")
		check    = flag.Bool("validate", false, "check the result: bfs, cc, pr, sssp and kcore by their defining properties (graph500-style), bc against sequential Brandes")

		traceOut  = flag.String("trace", "", "write a trace of the run (Chrome trace_event JSON)")
		traceShip = flag.String("trace-ship", "", "stream the trace to a collector at this address (gluon-trace serve)")
		topAddr   = flag.String("top-addr", "", "embed a live collector at this address so gluon-trace top can attach to this run")
		pprofAddr = flag.String("pprof-addr", "", "serve /debug/pprof/ at this address with sync phases labeled in CPU profiles")
		watchdog  = flag.Bool("watchdog", false, "run the straggler/stall watchdog (reports to stderr)")
		wdStall   = flag.Duration("watchdog-stall", 0, "escalate a flagged stall to a cluster failure after this long (0 = warn only)")
		pmDir     = flag.String("postmortem-dir", "", "arm the black-box flight recorder: failures write postmortem bundles (gluon-trace doctor input) under this directory")

		ckptDir   = flag.String("ckpt-dir", "", "write periodic per-host checkpoints under this directory (bfs, cc, sssp and pr checkpoint; kcore and bc do not)")
		ckptEvery = flag.Int("ckpt-every", 0, "checkpoint every N rounds (0 = ckpt package default)")
		ckptKeep  = flag.Int("ckpt-keep", 0, "retain the last K checkpoint epochs per host (0 = ckpt package default)")
		restore   = flag.Bool("restore", false, "resume from the newest complete checkpoint in -ckpt-dir instead of starting fresh")
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

	// Any observability flag turns tracing on; the trace object is shared by
	// the substrate and the collection sideband.
	var tr *trace.Trace
	var shipClock trace.ClockInfo
	if *traceOut != "" || *traceShip != "" || *topAddr != "" {
		tr = trace.New(trace.Config{Label: fmt.Sprintf("gluon-run %s/%s", *system, *benchFlg)})
		// ship streams the trace to a collector, each shipper through its
		// own cursor; the caller defers the returned Close.
		ship := func(addr string) (*trace.Shipper, func()) {
			sh, err := trace.StartShipper(trace.ShipperConfig{Addr: addr, Trace: tr})
			if err != nil {
				fatal(err)
			}
			logger.Info("shipping trace", "to", addr, "clock", fmt.Sprint(sh.Clock()))
			return sh, func() {
				if err := sh.Close(); err != nil {
					logger.Error("trace shipper failed", "to", addr, "err", err)
				}
			}
		}
		if *topAddr != "" {
			// An embedded collector makes this single process watchable: the
			// local trace reaches it through a loopback shipper like any
			// remote one, and gluon-trace top can attach at this address.
			col, err := trace.ListenAndCollect(*topAddr)
			if err != nil {
				fatal(err)
			}
			defer col.Close() // after the shipper's drain and bye: defers run last-in first-out
			logger.Info("live dashboard collector listening", "addr", col.Addr(), "watch", "gluon-trace top "+col.Addr())
			_, closeShip := ship(col.Addr())
			defer closeShip()
		}
		if *traceShip != "" {
			sh, closeShip := ship(*traceShip)
			defer closeShip()
			shipClock = sh.Clock()
		}
	}

	// Arming the flight recorder costs nothing on the hot path: without
	// explicit tracing it keeps a private always-on ring that dsys adopts,
	// and failure paths anywhere in the process dump bundles through it.
	if *pmDir != "" {
		fr := trace.NewFlightRecorder(trace.FlightConfig{Dir: *pmDir, Trace: tr})
		fr.SetRunConfig("gluon-run " + strings.Join(os.Args[1:], " "))
		fr.SetPoolCounters(comm.PoolCounters)
		if shipClock.Samples > 0 {
			fr.SetClock(shipClock)
		}
		trace.Arm(fr)
		logger.Info("flight recorder armed", "dir", *pmDir)
	}

	weighted := *benchFlg == "sssp"
	var numNodes uint64
	var edges []gluon.Edge
	var err error
	if *input != "" {
		f, ferr := os.Open(*input)
		if ferr != nil {
			fatal(ferr)
		}
		edges, numNodes, err = gio.ReadEdgeList(f)
		f.Close()
	} else {
		numNodes, edges, err = gluon.Generate(gluon.GraphConfig{
			Kind: *kind, Scale: *scale, EdgeFactor: *ef, Seed: *seed, Weighted: weighted,
		})
	}
	if err != nil {
		fatal(err)
	}
	if *benchFlg == "cc" || *benchFlg == "kcore" {
		edges = gluon.Symmetrize(edges)
	}
	csr, err := gluon.BuildCSR(numNodes, edges, weighted)
	if err != nil {
		fatal(err)
	}
	source := uint64(csr.MaxOutDegreeNode())
	// finish reports on the converged values, whichever system computed them.
	finish := func(values []float64) {
		writeTrace(tr, *traceOut)
		if *verify {
			printDigest(values)
		}
		if *check {
			if err := validateResult(*benchFlg, csr, uint32(source), *kFlag, values); err != nil {
				fatal(fmt.Errorf("validation FAILED: %w", err))
			}
			fmt.Println("validation passed ✓")
		}
	}

	if *system == "gemini" {
		if tr != nil {
			logger.Warn("the gemini baseline is not instrumented; trace output will be empty")
		}
		res, err := gemini.Run(numNodes, edges, gemini.Algorithm(*benchFlg), gemini.Config{
			Hosts: *hosts, Workers: *workers, Source: source,
			Tolerance: 1e-6, MaxIters: 100, CollectValues: *verify || *check,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("system=gemini bench=%s hosts=%d time=%v rounds=%d comm=%d bytes\n",
			*benchFlg, *hosts, res.Time, res.Rounds, res.TotalCommBytes)
		finish(res.Values)
		return
	}

	opt := gluon.Opt()
	if *unopt {
		opt = gluon.Unopt()
	}
	var factory gluon.ProgramFactory
	maxRounds := 0
	switch *benchFlg {
	case "bfs":
		factory = gluon.NewBFS(gluon.System(*system), source, *workers)
	case "sssp":
		factory = gluon.NewSSSP(gluon.System(*system), source, *workers)
	case "cc":
		factory = gluon.NewCC(gluon.System(*system), *workers)
	case "pr":
		factory = gluon.NewPageRank(gluon.System(*system), 1e-6, *workers)
		maxRounds = 100
	case "kcore":
		factory = gluon.NewKCore(gluon.System(*system), *kFlag, *workers)
	case "bc":
		factory = gluon.NewBC(source, *workers)
		maxRounds = 100000
	default:
		fatal(fmt.Errorf("unknown benchmark %q", *benchFlg))
	}

	chosen := gluon.PolicyKind(*policy)
	if *policy == "auto" {
		var err error
		chosen, err = gluon.AutotunePolicy(numNodes, edges, *hosts, factory)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("autotune selected policy %s\n", chosen)
	}

	var wcfg *trace.WatchdogConfig
	if *watchdog || *wdStall > 0 {
		wcfg = &trace.WatchdogConfig{StallTimeout: *wdStall}
	}
	var ckptOpts *ckpt.Options
	if *ckptDir != "" {
		ckptOpts = &ckpt.Options{Dir: *ckptDir, Every: *ckptEvery, Keep: *ckptKeep}
	} else if *restore {
		fatal(fmt.Errorf("-restore requires -ckpt-dir"))
	}
	res, err := gluon.Run(numNodes, edges, gluon.RunConfig{
		Hosts:         *hosts,
		Policy:        chosen,
		Opt:           opt,
		CollectValues: *verify || *check,
		MaxRounds:     maxRounds,
		Trace:         tr,
		Watchdog:      wcfg,
		Checkpoint:    ckptOpts,
		Restore:       *restore,
	}, factory)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("system=%s bench=%s policy=%s hosts=%d time=%v rounds=%d comm=%d bytes imbalance=%.2f\n",
		*system, *benchFlg, *policy, *hosts, res.Time, res.Rounds, res.TotalCommBytes, res.LoadImbalance())
	finish(res.Values)
}

// validateResult checks the collected values for the benchmarks with known
// validators.
func validateResult(benchName string, csr *gluon.CSR, source uint32, k uint64, values []float64) error {
	labels := make([]uint32, len(values))
	for i, v := range values {
		labels[i] = uint32(v)
	}
	switch benchName {
	case "bfs":
		return validate.BFS(csr, source, labels)
	case "sssp":
		return validate.SSSP(csr, source, labels)
	case "cc":
		return validate.CC(csr, labels)
	case "pr":
		return validate.PageRank(csr, 0.85, values, 1e-6)
	case "kcore":
		inCore := make([]bool, len(values))
		for i, v := range values {
			inCore[i] = v == 1
		}
		return validate.KCore(csr, k, inCore)
	case "bc":
		return validate.BC(csr, source, values, 1e-6)
	default:
		return fmt.Errorf("no validator for %q", benchName)
	}
}

// printDigest summarizes converged values (reachable count, sum) so two
// runs can be compared quickly.
func printDigest(values []float64) {
	var sum float64
	reached := 0
	for _, v := range values {
		if v != float64(^uint32(0)) {
			reached++
			sum += v
		}
	}
	fmt.Printf("digest: %d/%d nodes with finite values, sum=%.6g\n", reached, len(values), sum)
}

// writeTrace exports the trace (if one was recorded and a path given) and
// reports how much it captured; a non-zero drop count means the ring
// overwrote old events and totals will undercount.
func writeTrace(tr *trace.Trace, path string) {
	if tr == nil || path == "" {
		return
	}
	events, err := tr.WriteFile(path)
	if err != nil {
		fatal(err)
	}
	logger.Info("wrote trace", "events", events, "path", path, "analyze", "gluon-trace tables "+path)
	trace.LogDropped(logger, tr.Dropped())
}

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
