// Command gluon-perf is the trend analyzer over the machine-fingerprinted
// benchmark history (BENCH_history.jsonl) that gluon-bench appends to: it
// prints per-benchmark trend tables and sparklines grouped by host
// fingerprint, flags regressions (latest point vs trailing median, beyond
// the noise band), and pins the newest full record as BENCH_sync.json, the
// ratio gate's baseline, so re-pinning is a projection of the history
// instead of an ad-hoc measurement.
//
// Usage:
//
//	gluon-perf                              # trend tables for ./BENCH_history.jsonl
//	gluon-perf -db path/to/history.jsonl    # explicit history
//	gluon-perf -check                       # exit 1 if the newest record regresses
//	gluon-perf -check -tol 0.08 -window 12  # wider band, longer trailing median
//	gluon-perf -pin BENCH_sync.json         # pin the newest sync-bench record for this host
//	gluon-perf -fp 1a2b3c4d5e6f             # restrict tables to one machine class
//
// The regression check never compares across fingerprints: a new machine
// establishes a fresh series (its first record passes vacuously), while a
// slowdown on the machine the history already knows is flagged by
// benchmark name with its trend line. See DESIGN.md §4.9.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gluon/internal/perfdb"
	"gluon/internal/trace"
)

var logger = trace.NewLogger("gluon-perf")

func main() {
	var (
		db     = flag.String("db", "BENCH_history.jsonl", "perfdb history file (JSONL, appended by gluon-bench)")
		check  = flag.Bool("check", false, "flag regressions in the newest record vs its fingerprint's trailing history; exit 1 if any")
		tol    = flag.Float64("tol", 0.05, "fractional ns/op regression allowed before noise widening (-check)")
		window = flag.Int("window", 8, "trailing points forming the reference median and sparklines")
		pin    = flag.String("pin", "", "write the newest full (sync-bench) record for this host's fingerprint to this file as JSON, then exit")
		fp     = flag.String("fp", "", "restrict trend tables to this fingerprint ID (prefix match)")
	)
	flag.Parse()

	recs, skipped, err := perfdb.Read(*db)
	if err != nil {
		fatal(err)
	}
	if skipped > 0 {
		logger.Warn("skipped unreadable history lines (torn append or foreign schema)", "path", *db, "lines", skipped)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("%s holds no readable records — run `make bench-pin` or `gluon-bench -sync-record -perfdb %s`", *db, *db))
	}

	if *pin != "" {
		if err := pinSnapshot(*pin, recs); err != nil {
			fatal(err)
		}
		return
	}

	if *fp != "" {
		var kept []perfdb.Record
		for _, r := range recs {
			if len(*fp) <= len(r.FingerprintID) && r.FingerprintID[:len(*fp)] == *fp {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			fatal(fmt.Errorf("no records match fingerprint %q (host is %s)", *fp, perfdb.Probe().ID()))
		}
		recs = kept
	}

	if err := perfdb.WriteTrends(os.Stdout, recs, *window); err != nil {
		fatal(err)
	}

	if *check {
		regs := perfdb.Check(recs, perfdb.CheckOptions{Tol: *tol, Window: *window})
		if len(regs) == 0 {
			fmt.Printf("\nno regressions: newest record within band of its fingerprint's trailing median ✓\n")
			return
		}
		fmt.Println()
		for _, r := range regs {
			fmt.Println(r.String())
		}
		os.Exit(1)
	}
}

// pinLabel marks the full snapshots gluon-bench -sync-record writes; the
// guard's own sync-guard records hold only the auto and unopt tiers.
const pinLabel = "sync-bench"

// pinSnapshot writes the newest full record as indented JSON, unchanged,
// preferring this host's fingerprint so a pin on a new machine starts that
// machine's own baseline.
func pinSnapshot(path string, recs []perfdb.Record) error {
	host := perfdb.Probe().ID()
	rec, err := perfdb.Latest(recs, pinLabel, host)
	if err != nil {
		// No record from this machine yet: fall back to the newest overall.
		// The ratio gate is machine-independent, so a foreign pin still
		// gates; only allocs/op wait for a pin at the guard's GOMAXPROCS.
		if rec, err = perfdb.Latest(recs, pinLabel, ""); err != nil {
			return fmt.Errorf("history holds no %s record to pin", pinLabel)
		}
		logger.Warn("no record from this machine; pinning newest foreign record",
			"record_fp", rec.FingerprintID, "host_fp", host)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	logger.Info("pinned record from history", "path", path, "fp", rec.FingerprintID,
		"time", rec.Time.Format("2006-01-02T15:04:05Z"), "rows", len(rec.Benchmarks))
	return nil
}

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
