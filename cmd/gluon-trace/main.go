// Command gluon-trace reads everything the observability plane records —
// trace exports, a live collector's state, postmortem bundles — through
// one fold (internal/trace's Rollup), so its reports cannot disagree.
//
//	gluon-trace tables   [-json] [-label s] [-top n] trace-file
//	gluon-trace critical [-json] [-label s] trace-file
//	gluon-trace serve    [-sessions n] [-o merged.json] [-json] [-label s] [-top n] listen-addr
//	gluon-trace top      [-refresh 1s] [-rounds 8] [-o jsonl] [-once] collector-addr
//	gluon-trace doctor   [-o final.trace.json] [-window 10s] [-json] bundle-dir
//
// tables reads a trace produced by gluon-run or gluon-bench (-trace flag), a
// Chrome trace_event JSON export, and prints the paper-style tables —
// per-round communication volume and time, per-peer skew, phase time
// breakdown, the encoding-mode histogram, and any fault timeline.
//
// critical prints the critical-path attribution instead: per round, which
// host arrived at the termination barrier last and which of its phases
// (compute / encode / wire / recv-wait / fold / apply / straggler-wait)
// dominated, plus the optimization-effectiveness ledger — bytes shipped
// against a modeled naive dense broadcast, split by update-mask sparsity and
// invariant skips, with the sync time each saving is worth at the observed
// wire rate.
//
// serve is the standalone trace collector for multi-process clusters: every
// process points its trace shipper at the listen address, and gluon-trace
// merges the shipped events onto one clock-aligned timeline, writes it to
// -o, and prints the tables. top can attach to the same address while the
// run is live.
//
// top is a live terminal dashboard that polls a collector once per -refresh
// (top.go); doctor performs causal crash
// diagnosis on the postmortem bundles a dead cluster left behind.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gluon/internal/trace"
)

// logger is the CLI's structured log sink.
var logger = trace.NewLogger("gluon-trace")

// errUsage marks a command line the flag package already complained about.
var errUsage = errors.New("usage")

const usage = `usage: gluon-trace command [flags] argument
  tables   [-json] [-label s] [-top n] trace-file            volume, skew, phase and mode tables of a trace export
  critical [-json] [-label s] trace-file                     barrier-gating attribution per round and the optimization ledger
  serve    [-sessions n] [-o f] [-json] [-label s] [-top n] listen-addr   collect and merge traces shipped by a live cluster
  top      [-refresh d] [-rounds n] [-o jsonl] [-once] collector-addr     live dashboard, polling a collector every -refresh
  doctor   [-o f] [-window 10s] [-json] bundle-dir           causal diagnosis of the bundles under a -postmortem-dir
`

// commands maps each subcommand to its body, which registers its flags on
// fs, parses args, and writes its report to stdout.
var commands = map[string]func(ctx context.Context, fs *flag.FlagSet, args []string, stdout io.Writer) error{
	"tables": reportCmd, "critical": reportCmd, "serve": serveCmd, "top": topCmd, "doctor": doctorCmd,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one command line and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprint(stderr, usage)
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "%s\n%s flags:\n", usage, args[0])
		fs.PrintDefaults()
	}
	err := commands[args[0]](ctx, fs, args[1:], stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	logger.Error(err.Error())
	return 1
}

// parseOne parses args and returns the single positional argument every
// subcommand takes.
func parseOne(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", errors.Join(errUsage, err)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return "", errUsage
	}
	return fs.Arg(0), nil
}

// reportFlags registers the flags that shape a trace report — the standard
// tables, or the critical-path attribution — and returns the label override
// plus the function that renders the report they describe.
func reportFlags(fs *flag.FlagSet, critical bool) (label *string, render func(io.Writer, trace.Meta, []trace.Event) error) {
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of tables")
	label = fs.String("label", "", "override the label shown in the header")
	peerCap := new(int)
	if !critical {
		peerCap = fs.Int("top", 20, "cap the per-peer skew table at the n heaviest pairs (0 = all)")
	}
	return label, func(w io.Writer, meta trace.Meta, events []trace.Event) error {
		if *label != "" {
			meta.Label = *label
		}
		var report interface{ WriteTables(io.Writer) error }
		if critical {
			report = trace.ComputeCriticalPath(meta, events)
		} else {
			s := trace.SummarizeMeta(meta, events)
			s.PeerCap = *peerCap
			report = s
		}
		if *asJSON {
			return writeJSON(w, report)
		}
		return report.WriteTables(w)
	}
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// reportCmd is both the tables and the critical command.
func reportCmd(_ context.Context, fs *flag.FlagSet, args []string, stdout io.Writer) error {
	_, render := reportFlags(fs, fs.Name() == "critical")
	path, err := parseOne(fs, args)
	if err != nil {
		return err
	}
	events, meta, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	// An empty trace is an error, not an empty table: it means the producer
	// never recorded anything (tracing off, crash before export, truncation).
	if len(events) == 0 {
		return fmt.Errorf("%s: trace contains no events", path)
	}
	trace.LogDropped(logger, meta.Dropped)
	return render(stdout, meta, events)
}

func serveCmd(ctx context.Context, fs *flag.FlagSet, args []string, stdout io.Writer) error {
	label, render := reportFlags(fs, false)
	sessions := fs.Int("sessions", 0, "exit after this many shipper sessions complete (0 = run until interrupted)")
	out := fs.String("o", "", "write the merged cluster trace to this file (Chrome trace_event JSON)")
	addr, err := parseOne(fs, args)
	if err != nil {
		return err
	}
	col, err := trace.ListenAndCollect(addr)
	if err != nil {
		return err
	}
	logger.Info("collecting until interrupted or -sessions complete (point trace shippers here; gluon-trace top attaches live)",
		"addr", col.Addr(), "sessions", *sessions)
	events, meta, err := collect(ctx, col, *sessions, *out, *label)
	if events != nil {
		if rerr := render(stdout, meta, events); rerr != nil {
			return rerr
		}
	}
	return err
}

// collect accepts shipper sessions until the target count completes (or ctx
// is cancelled), then merges and exports. The merged timeline comes back even
// alongside an error, so a partial run is still reported.
func collect(ctx context.Context, col *trace.Collector, wantSessions int, out, label string) ([]trace.Event, trace.Meta, error) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case <-ctx.Done():
			logger.Info("interrupted; merging what arrived")
			break wait
		case <-tick.C:
			if _, done := col.Sessions(); wantSessions > 0 && done >= wantSessions {
				break wait
			}
		}
	}
	col.Close()
	errs := col.Errs()
	for _, e := range errs {
		logger.Error("shipper session ended in error", "err", e)
	}
	broken := 0
	for _, si := range col.SessionInfos() {
		if si.State == "error" {
			broken++
			logger.Error("shipper session disconnected without bye",
				"session", si.ID, "addr", si.Addr, "hosts", si.Hosts, "reason", si.Error)
		}
	}
	events, meta := col.Merged()
	if len(events) == 0 {
		return nil, meta, fmt.Errorf("no trace events collected (were shippers pointed at %s?)", col.Addr())
	}
	if label != "" {
		meta.Label = label
	}
	if out != "" {
		if err := trace.WriteFileMeta(out, meta, events); err != nil {
			return nil, meta, err
		}
		logger.Info("wrote merged trace", "events", len(events), "path", out)
	}
	// A collector that lost sessions must not exit 0: the merged timeline is
	// incomplete, and scripts gating on it would silently trust partial data.
	if n := max(len(errs), broken); n > 0 {
		return events, meta, fmt.Errorf("%d shipper session(s) ended in error (listed above); merged trace is incomplete", n)
	}
	return events, meta, nil
}

// doctorCmd loads the bundles an armed flight recorder wrote (collect them
// from every surviving host into one directory first, for multi-machine
// clusters) and prints the operator transcript: which rank failed first and
// why, how the poison propagated through the survivors, what the stalled host
// was last doing, and how many rounds a checkpoint restore would replay.
// Bundles from different processes carry unrelated session clocks; they are
// aligned with the sideband-measured offsets when every session shipped
// traces, falling back to wall-clock alignment otherwise.
func doctorCmd(_ context.Context, fs *flag.FlagSet, args []string, stdout io.Writer) error {
	out := fs.String("o", "", "write the merged, clock-aligned Chrome trace of the final window to this file")
	window := fs.Duration("window", 10*time.Second, "with -o: trailing timeline to keep (0 = everything)")
	asJSON := fs.Bool("json", false, "emit the structured diagnosis as JSON instead of the transcript")
	dir, err := parseOne(fs, args)
	if err != nil {
		return err
	}
	bundles, bad, err := trace.LoadBundles(dir)
	for _, e := range bad {
		logger.Warn("skipping corrupt bundle", "err", e)
	}
	if err != nil {
		return err
	}
	d := trace.Diagnose(bundles)
	if *asJSON {
		if err := writeJSON(stdout, d); err != nil {
			return err
		}
	} else {
		d.WriteReport(stdout)
	}
	if *out == "" {
		return nil
	}
	events := trace.FinalWindow(d.Merged, *window)
	meta := trace.Meta{Label: "postmortem " + dir, Dropped: d.MergedDropped, Clocks: d.MergedClocks}
	if err := trace.WriteFileMeta(*out, meta, events); err != nil {
		return err
	}
	logger.Info("wrote aligned final window", "events", len(events), "path", *out)
	return nil
}
