package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

const (
	setupReps    = 5  // set-up reps per run, each followed by a segment of timed operations
	minTimedReps = 10 // timed operations per run at least, however short --seconds is
	minTraceReps = 3  // traced (and paired untraced) operations at least
	// opDeadline bounds one operation. The slowest takes ~1 s; an operation
	// that is still running after this long is hung, and is failed by closing
	// its transports under it.
	opDeadline = 30 * time.Second
)

// options are the flags of one workload run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	spans   string // where the traced run's spans go, as JSONL
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints, in the contract's shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the inputs and the environment of a run, so that two
// runs can be told to have measured the same thing.
type record struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Graph      string   `json:"graph"`
	Nodes      uint64   `json:"nodes"`
	Edges      int      `json:"edges"`
	EdgeHash   string   `json:"edge_hash"`
	Sources    []uint64 `json:"sources"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
}

// opResult is what one operation produced.
type opResult struct {
	runS      float64
	rounds    int
	commBytes uint64
	gluon     gluon.Stats // summed over hosts and runs
	wire      comm.Stats  // summed over hosts and runs
	values    [][]float64 // one vector per run, when collected
}

// operation runs one operation of the workload: one dsys.RunWithTransports
// call for pr and bfs, one per source back to back for sssp. run_s is the
// time inside those calls. The transports are opened before and closed
// after, untimed; set-up has already paid for opening a set. With rec
// non-nil the run goes through the timing wrappers.
func (s spec) operation(in *inputs, collect bool, rec *recorder) (opResult, error) {
	var res opResult
	ts, err := s.open()
	if err != nil {
		return res, err
	}
	defer closeAll(ts)
	var timedOut atomic.Bool
	deadline := time.AfterFunc(opDeadline, func() {
		timedOut.Store(true)
		closeAll(ts) // every blocked Recv fails, so the run returns
	})
	defer deadline.Stop()

	var hts []*hostTrace
	var runSpan int64
	if rec != nil {
		hts = newHostTraces(rec, s.hosts)
		runSpan = rec.open(-1, "run", 0, -1)
		defer func() { rec.close(runSpan, uint64(res.rounds)) }()
	}
	sources := in.sources
	if len(sources) == 0 {
		sources = []uint64{0}
	}
	cfg := s.runConfig(collect)
	for _, src := range sources {
		runTs, factory := ts, s.factory(src)
		if rec != nil {
			runTs, factory = traceRun(hts, runSpan, ts, factory)
		}
		start := time.Now()
		r, err := dsys.RunWithTransports(in.parts, runTs, cfg, factory)
		res.runS += time.Since(start).Seconds()
		for _, ht := range hts {
			ht.finish()
		}
		if err != nil {
			if timedOut.Load() {
				err = fmt.Errorf("deadline of %v exceeded: %w", opDeadline, err)
			}
			return res, err
		}
		res.rounds += r.Rounds
		res.commBytes += r.TotalCommBytes
		for _, h := range r.Hosts {
			res.gluon = res.gluon.Add(h.Gluon)
		}
		if collect {
			res.values = append(res.values, r.Values)
		}
	}
	for _, t := range ts {
		st := t.Stats()
		res.wire.MessagesSent += st.MessagesSent
		res.wire.BytesSent += st.BytesSent
	}
	return res, nil
}

// sample is the timings of one metric over the reps of a run.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) median() float64 { return s.quantile(2) }

// quantile returns the i-th quartile the way Python's statistics.quantiles
// (n=4, exclusive) computes it, which is what the acceptance rule uses.
func (s sample) quantile(i int) float64 {
	x := s.sorted()
	n := len(x)
	switch n {
	case 0:
		return 0
	case 1:
		return x[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (x[j-1]*(4-delta) + x[j]*delta) / 4
}

// best is the fastest sample, which is what the run reports. This box is a
// shared one: interference only ever adds time, in bursts of seconds to
// minutes that shift the median of a 30 s run by 10-40 %. Across ten runs
// the fastest operation of each repeats within a few percent; their medians
// do not (README.md has the numbers).
func (s sample) best() float64 {
	if len(s) == 0 {
		return 0
	}
	return slices.Min(s)
}

// String gives the fastest sample, median, quartiles, the slowest and n.
// With n < 20 no percentile above the median has ten samples beyond it, so
// none is reported.
func (s sample) String() string {
	x := s.sorted()
	if len(x) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("best %.4f  median %.4f  q1 %.4f  q3 %.4f  max %.4f  n=%d",
		x[0], s.median(), s.quantile(1), s.quantile(3), x[len(x)-1], len(x))
}

// bench is the state of one run of one workload.
type bench struct {
	s   spec
	o   options
	w   io.Writer
	rec *recorder // nil unless tracing

	in   *inputs
	base opResult // the verified warm-up: what every operation must reproduce
	res  result

	setupS, generateS, partitionS sample
	runS, tracedS                 sample
	layers                        map[string]sample
	mem                           memDelta
	lastFold                      hostFold
	accounted                     float64
}

// runWorkload is one run of one workload. It alternates set-up reps with
// segments of timed operations on that rep's partitions, so that the samples
// of setup_s and of run_s are both spread across the whole run rather than
// taken from one stretch of it (see best). It writes a readable report to w
// and returns the contract's result.
func runWorkload(s spec, o options, w io.Writer) (result, record, error) {
	if o.quick {
		s.scale = s.quickScale
	}
	b := &bench{s: s, o: o, w: w, layers: map[string]sample{}, accounted: 1,
		res: result{Correct: true, Metrics: map[string]metric{}}}
	if o.trace {
		b.rec = newRecorder(s.hosts)
	}
	fmt.Fprintf(w, "workload   %s  seed %d\n           %s\n", s.name, o.seed, s.why)

	var rcd record
	for rep := 0; rep < setupReps; rep++ {
		if err := b.setup(rep); err != nil {
			return result{}, rcd, fmt.Errorf("set-up: %w", err)
		}
		if rep == 0 {
			var err error
			if rcd, err = b.verifyWarmUp(); err != nil {
				return result{}, rcd, fmt.Errorf("warm-up: %w", err)
			}
		} else if _, ok := b.attempt(nil); !ok {
			// Untimed: lets the lazy set-up on the new partitions (the
			// transposed graph pull operators build on first use) finish.
			continue
		}
		b.in.edges = nil // the partitions hold their own copy
		b.segment(rep)
	}
	if len(b.runS) == 0 {
		return b.res, rcd, errors.New("no operation succeeded")
	}
	if o.trace && len(b.tracedS) == 0 {
		return b.res, rcd, errors.New("no traced operation succeeded")
	}
	if err := b.report(rcd); err != nil {
		return b.res, rcd, err
	}
	return b.res, rcd, nil
}

func (b *bench) runID(kind string, i int) string {
	return fmt.Sprintf("%s/seed-%d/%s-%d", b.s.name, b.o.seed, kind, i)
}

// setup is one timed set-up rep; its inputs replace the previous rep's.
func (b *bench) setup(rep int) error {
	b.in = nil
	runtime.GC() // the previous rep's graph is garbage; do not let it count
	if b.rec != nil {
		b.rec.begin(b.runID("setup", rep))
	}
	start := time.Now()
	in, err := b.s.setup(b.o.seed, b.rec)
	if err != nil {
		return err
	}
	b.in = in
	b.setupS = append(b.setupS, time.Since(start).Seconds())
	b.generateS = append(b.generateS, in.generateS)
	b.partitionS = append(b.partitionS, in.partitionS)
	return nil
}

// verifyWarmUp runs the first operation untimed, with CollectValues, and
// checks it against the sequential reference. The CSR the verifier needs is
// built here, outside the set-up interval.
func (b *bench) verifyWarmUp() (record, error) {
	s, in, w := b.s, b.in, b.w
	rcd := record{
		Workload: s.name, Seed: b.o.seed,
		Graph: fmt.Sprintf("%s scale=%d edgefactor=%d weighted=%v", s.graph, s.scale, s.edgeFactor, s.weighted),
		Nodes: in.numNodes, Edges: len(in.edges), EdgeHash: fmt.Sprintf("%016x", hashEdges(in.edges)),
		Sources: in.sources, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	fmt.Fprintf(w, "env        nproc=%d GOMAXPROCS=%d %s commit=%s\n", rcd.NProc, rcd.GOMAXPROCS, rcd.GoVersion, rcd.Commit)
	fmt.Fprintf(w, "input      %s nodes=%d edges=%d hash=%s sources=%v\n", rcd.Graph, rcd.Nodes, rcd.Edges, rcd.EdgeHash, rcd.Sources)
	fmt.Fprintf(w, "run        %d hosts, %s, %s, %s, workers=%d\n", s.hosts, s.policy, s.engine(), s.transport(), workers)
	csr, err := graph.FromEdges(in.numNodes, in.edges, s.weighted)
	if err != nil {
		return rcd, err
	}
	b.res.Attempted++
	if b.base, err = s.operation(in, true, nil); err != nil {
		return rcd, err
	}
	if err := s.verify(csr, in.sources, b.base.values); err != nil {
		return rcd, err
	}
	b.base.values = nil
	fmt.Fprintf(w, "verify     ok against internal/ref: rounds=%d comm_bytes=%d\n", b.base.rounds, b.base.commBytes)
	return rcd, nil
}

// attempt runs one more operation and accounts for it: it fails if the run
// fails or does not reproduce the warm-up's rounds and comm_bytes.
func (b *bench) attempt(rec *recorder) (opResult, bool) {
	runtime.GC() // start every operation from the same heap
	r, err := b.s.operation(b.in, false, rec)
	b.res.Attempted++
	if err == nil && (r.rounds != b.base.rounds || r.commBytes != b.base.commBytes) {
		err = fmt.Errorf("rounds=%d comm_bytes=%d, warm-up had %d and %d", r.rounds, r.commBytes, b.base.rounds, b.base.commBytes)
	}
	if err != nil {
		b.res.Failed++
		fmt.Fprintf(b.w, "FAILED     operation %d: %v\n", b.res.Attempted, err)
	}
	return r, err == nil
}

// segment times operations on the current partitions for its share of
// --seconds; when tracing, every second operation goes through the wrappers.
func (b *bench) segment(rep int) {
	minReps := minTimedReps
	if b.o.trace {
		minReps = minTraceReps
	}
	if b.o.quick {
		minReps = 2
	}
	want := (minReps*(rep+1) + setupReps - 1) / setupReps // reps done by the end of this segment
	share := b.o.seconds / setupReps
	for start := time.Now(); len(b.runS) < want || time.Since(start).Seconds() < share; {
		if b.res.Failed > 2 {
			return // a broken build fails every operation; do not sit out the clock
		}
		b.mem.start()
		r, ok := b.attempt(nil)
		b.mem.stop()
		if ok {
			b.runS = append(b.runS, r.runS)
		}
		if b.rec == nil {
			continue
		}
		b.rec.begin(b.runID("rep", len(b.tracedS)))
		if r, ok = b.attempt(b.rec); !ok {
			continue
		}
		b.tracedS = append(b.tracedS, r.runS)
		fold := layerTimes(b.rec)
		for k, v := range fold.secs {
			b.layers[k] = append(b.layers[k], v)
		}
		b.layers["active_total"] = append(b.layers["active_total"], float64(fold.active))
		b.lastFold = fold.gating
		b.accounted = min(b.accounted, fold.accounted)
	}
}

// report prints the run's numbers and fills in the result's metrics.
func (b *bench) report(rcd record) error {
	w, res, base := b.w, &b.res, b.base
	fmt.Fprintf(w, "setup_s    %v\n", b.setupS)
	fmt.Fprintf(w, "run_s      %v\n", b.runS)
	fmt.Fprintf(w, "ops        failed/attempted %d/%d\n", res.Failed, res.Attempted)
	if !b.o.trace {
		res.Metrics["setup_s"] = metric{b.setupS.best(), "s"}
		res.Metrics["run_s"] = metric{b.runS.best(), "s"}
		return nil
	}

	// Every per-layer metric, under the layer (a package of this repo) it
	// measures, in the order the report prints them.
	pstats := partition.ComputeStats(b.in.parts)
	fmt.Fprintf(w, "traced     run_s %v\n", b.tracedS)
	fmt.Fprintf(w, "per layer  (medians over the %d traced operations; counts from the warm-up)", len(b.tracedS))
	layer := ""
	put := func(in, name string, v float64, unit string) {
		res.Metrics[name] = metric{v, unit}
		if in != layer {
			layer = in
			fmt.Fprintf(w, "\n  %-10s", layer)
		}
		fmt.Fprintf(w, " %s=%s%s", name, strconv.FormatFloat(v, 'g', 6, 64), unit)
	}
	seconds := func(in, name string) { put(in, name, b.layers[name].median(), "s") }
	put("generate", "generate_s", b.generateS.median(), "s")
	put("generate", "edges", float64(rcd.Edges), "count")
	put("partition", "partition_s", b.partitionS.median(), "s")
	put("partition", "replication_factor", pstats.ReplicationFactor, "x")
	put("partition", "edge_imbalance", pstats.EdgeImbalance, "x")
	seconds("gluon", layerMemoize)
	seconds("gluon", layerSyncSelf)
	put("gluon", "comm_bytes", float64(base.commBytes), "B")
	put("gluon", "value_bytes", float64(base.gluon.ValueBytes), "B")
	put("gluon", "metadata_bytes", float64(base.gluon.MetadataBytes), "B")
	put("gluon", "gid_bytes", float64(base.gluon.GIDBytes), "B")
	put("gluon", "sync_msgs", float64(base.gluon.MessagesSent), "count")
	seconds("comm", layerSend)
	seconds("comm", layerRecvWait)
	seconds("comm", layerSendRsvd)
	put("comm", "wire_msgs", float64(base.wire.MessagesSent), "count")
	put("comm", "wire_bytes", float64(base.wire.BytesSent), "B")
	seconds("engine", layerCompute)
	put("engine", "rounds", float64(base.rounds), "count")
	put("engine", "active_total", b.layers["active_total"].median(), "count")
	seconds("dsys", layerTermWait)
	seconds("dsys", layerOther)
	put("process", "alloc_mb", b.mem.allocMB/float64(b.mem.ops), "MB")
	put("process", "gc_cycles", float64(b.mem.gcs)/float64(b.mem.ops), "count")
	put("process", "peak_rss_mb", peakRSSMB(), "MB")
	put("process", "trace_overhead", b.tracedS.median()/b.runS.median(), "x")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "gating host: where its run wall of %.4f s went (latest traced operation)\n%s",
		float64(b.lastFold.wall)/1e9, layerTable(b.lastFold))
	fmt.Fprintf(w, "accounted  %.4f of every host's run wall is covered by span self times\n", b.accounted)

	if b.o.spans != "" {
		if err := writeSpans(b.o.spans, b.rec); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans      %s\n", b.o.spans)
	}
	return nil
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSONL(f, rec.all()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (s spec) engine() string {
	return map[string]string{"pr": "d-galois", "bfs": "d-ligra", "sssp": "d-irgl"}[s.algo]
}

func (s spec) transport() string {
	switch {
	case s.tcp:
		return "tcp loopback mesh"
	case s.net.Enabled():
		return fmt.Sprintf("in-process hub with link model %v + %.0f MB/s", s.net.Latency, s.net.Bandwidth/1e6)
	}
	return "in-process hub"
}

// memDelta sums the heap traffic of the untraced timed operations.
type memDelta struct {
	before  runtime.MemStats
	allocMB float64
	gcs     uint32
	ops     int
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocMB += float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20)
	m.gcs += (after.NumGC - after.NumForcedGC) - (m.before.NumGC - m.before.NumForcedGC)
	m.ops++
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
