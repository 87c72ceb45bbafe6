package bench

// Sync hot-path history records and the regression gate. One fixture
// (syncBenchCluster) is measured per encoding mode × host count — wall
// time, bytes allocated, allocations, and a MAD noise estimate per full
// cluster-wide Sync (every host encodes, ships, receives, and applies one
// round) — into a perfdb record, the one format the measurement is kept
// in: gluon-bench appends it to the machine-fingerprinted history
// (BENCH_history.jsonl), and BENCH_sync.json at the repo root is one such
// record pinned by gluon-perf, so successive PRs have a perf trajectory to
// compare against. The BenchmarkSyncHotPath* benchmarks in this package's
// tests run the same fixture under go test.
//
// The `make check` gate is the self-calibrating RATIO gate (DESIGN.md
// §4.9): it measures the unoptimized reference wire format and the
// optimized tiers in the same process and compares the opt/unopt ratio
// against the baseline's ratio, so the check passes on any machine — a 2×
// faster host scales numerator and denominator together.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/fields"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/perfdb"
	"gluon/internal/trace"
)

// syncName is the perfdb series key of one (hosts, tier) row.
func syncName(hosts int, encoding string) string {
	return fmt.Sprintf("sync/h=%d/%s", hosts, encoding)
}

// syncBenchCluster is the one sync hot-path fixture, behind the history
// records, the guard and the BenchmarkSyncHotPath* benchmarks alike:
// per-host substrates over a CVC partitioning with a uint32 min/set field,
// updates on every fifth proxy.
type syncBenchCluster struct {
	parts  []*partition.Partition
	gs     []*gluon.Gluon
	labels [][]uint32
	upds   []*bitset.Bitset
	close  func()
}

func newSyncBenchCluster(p Params, hosts int, opt gluon.Options) (*syncBenchCluster, error) {
	cfg := generate.Config{Kind: "rmat", Scale: p.Scale, EdgeFactor: p.EdgeFactor, Seed: p.Seed}
	edges, err := generate.Edges(cfg)
	if err != nil {
		return nil, err
	}
	numNodes := cfg.NumNodes()
	outDeg := make([]uint32, numNodes)
	inDeg := make([]uint32, numNodes)
	for _, e := range edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts,
		partition.Options{OutDegrees: outDeg, InDegrees: inDeg})
	if err != nil {
		return nil, err
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		return nil, err
	}
	hub := comm.NewHub(hosts)
	c := &syncBenchCluster{parts: parts, close: hub.Close}
	c.gs = make([]*gluon.Gluon, hosts)
	c.labels = make([][]uint32, hosts)
	c.upds = make([]*bitset.Bitset, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			c.gs[h], errs[h] = gluon.New(parts[h], hub.Endpoint(h), opt)
		}(h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			hub.Close()
			return nil, err
		}
	}
	for h := 0; h < hosts; h++ {
		c.labels[h] = make([]uint32, parts[h].NumProxies())
		for i := range c.labels[h] {
			c.labels[h][i] = fields.InfinityU32
		}
		c.upds[h] = bitset.New(parts[h].NumProxies())
	}
	return c, nil
}

func (c *syncBenchCluster) markUpdates(round int) {
	for h := range c.gs {
		c.upds[h].Reset()
		n := c.parts[h].NumProxies()
		for i := uint32(0); i < n; i += 5 {
			c.upds[h].SetUnsync(i)
			c.labels[h][i] = uint32(round)
		}
	}
}

func (c *syncBenchCluster) syncAll() error {
	errs := make([]error, len(c.gs))
	var wg sync.WaitGroup
	for h := range c.gs {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			f := gluon.Field[uint32]{
				ID:        90,
				Name:      "syncbench",
				Write:     gluon.AtDestination,
				Read:      gluon.AtSource,
				Reduce:    fields.Min[uint32](c.labels[h]),
				Broadcast: fields.Set[uint32](c.labels[h]),
			}
			errs[h] = gluon.Sync(c.gs[h], f, c.upds[h])
		}(h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run is one benchmark of the cluster: a warm round primes memoization and
// the pools, then b.N cluster-wide syncs are timed.
func (c *syncBenchCluster) run(b *testing.B) error {
	c.markUpdates(0)
	if err := c.syncAll(); err != nil {
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.markUpdates(i + 1)
		if err := c.syncAll(); err != nil {
			return err
		}
	}
	return nil
}

// encSpec pairs an encoding name with the options that select it.
type encSpec struct {
	name string
	opt  gluon.Options
}

func allEncodings() []encSpec {
	return []encSpec{
		{"auto", gluon.Opt()},
		{"dense", withEncoding(gluon.EncodingDense)},
		{"bitvec", withEncoding(gluon.EncodingBitvec)},
		{"indices", withEncoding(gluon.EncodingIndices)},
		{"unopt", gluon.Unopt()},
	}
}

// AllSyncEncodings names every measurable encoding tier, in report order.
func AllSyncEncodings() []string {
	all := allEncodings()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.name
	}
	return names
}

// SyncBenchTiers measures the named encodings (see allEncodings for the
// valid names) at each host count into one unlabeled history record.
func SyncBenchTiers(p Params, hostCounts []int, names []string) (*perfdb.Record, error) {
	all := allEncodings()
	var specs []encSpec
	for _, n := range names {
		found := false
		for _, e := range all {
			if e.name == n {
				specs = append(specs, e)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("bench: unknown sync encoding %q", n)
		}
	}
	return syncBenchFor(p, hostCounts, specs)
}

// measureReps repeats each row's measurement and keeps the fastest: wall
// time on a shared machine is noisy, and load spikes only ever inflate a
// rep, so the min estimates the true cost. Allocations are deterministic
// and identical across reps. Eight reps (not fewer) because the gates
// compare two independent min estimates against a tight tolerance — on a
// small or busy machine both must converge to the true floor or the gate
// flaps. The spread of the reps (MAD) rides along as the row's noise
// estimate.
const measureReps = 8

func syncBenchFor(p Params, hostCounts []int, encodings []encSpec) (*perfdb.Record, error) {
	fp := perfdb.Probe()
	rec := &perfdb.Record{
		Fingerprint:   fp,
		FingerprintID: fp.ID(),
		Graph:         fmt.Sprintf("rmat scale=%d ef=%d seed=%d cvc", p.Scale, p.EdgeFactor, p.Seed),
	}
	for _, hosts := range hostCounts {
		for _, e := range encodings {
			c, err := newSyncBenchCluster(p, hosts, e.opt)
			if err != nil {
				return nil, fmt.Errorf("sync bench hosts=%d %s: %w", hosts, e.name, err)
			}
			var benchErr error
			var best testing.BenchmarkResult
			reps := make([]int64, 0, measureReps)
			for trial := 0; trial < measureReps && benchErr == nil; trial++ {
				r := testing.Benchmark(func(b *testing.B) {
					if err := c.run(b); err != nil {
						benchErr = err
						b.SkipNow()
					}
				})
				reps = append(reps, r.NsPerOp())
				if trial == 0 || r.NsPerOp() < best.NsPerOp() {
					best = r
				}
			}
			c.close()
			if benchErr != nil {
				return nil, fmt.Errorf("sync bench hosts=%d %s: %w", hosts, e.name, benchErr)
			}
			rec.Benchmarks = append(rec.Benchmarks, perfdb.BenchResult{
				Name:        syncName(hosts, e.name),
				Hosts:       hosts,
				Encoding:    e.name,
				NsPerOp:     best.NsPerOp(),
				BytesPerOp:  best.AllocedBytesPerOp(),
				AllocsPerOp: best.AllocsPerOp(),
				NoiseNs:     perfdb.MAD(reps),
				Reps:        len(reps),
			})
		}
	}
	return rec, nil
}

func withEncoding(enc gluon.Encoding) gluon.Options {
	opt := gluon.Opt()
	opt.ForceEncoding = enc
	return opt
}

// commProbeRounds is how many BSP rounds the traced probe runs; every
// third round ships nothing, exercising the temporal-invariance silent
// path so the invariant-skip share is a live number, not a constant zero.
const commProbeRounds = 6

// CommProbe runs a small instrumented cluster for a few rounds and
// distills the trace ledger into the comm-volume counters a perf-history
// record carries. Timing is irrelevant here — tracing overhead doesn't
// matter, only bytes and round structure do.
func CommProbe(p Params, hosts int) (*perfdb.Comm, error) {
	c, err := newSyncBenchCluster(p, hosts, gluon.Opt())
	if err != nil {
		return nil, err
	}
	defer c.close()
	tr := trace.New(trace.Config{Label: "syncbench comm probe"})
	recs := make([]*trace.Recorder, hosts)
	for h := 0; h < hosts; h++ {
		recs[h] = tr.Recorder(h)
		c.gs[h].SetRecorder(recs[h])
	}
	for round := 0; round < commProbeRounds; round++ {
		for _, rec := range recs {
			rec.SetRound(int32(round))
		}
		if round%3 == 2 {
			// Silent round: the fields converged, no host ships. A barrier
			// span marks the round's existence so the ledger charges every
			// channel one round of invariant savings.
			for _, rec := range recs {
				rec.Emit(trace.Event{Start: rec.Now(), Dur: 1, Phase: trace.PhaseBarrier, Peer: -1})
			}
			continue
		}
		c.markUpdates(round + 1)
		if err := c.syncAll(); err != nil {
			return nil, err
		}
	}
	ledger := trace.LedgerOf(tr)
	if ledger.Rounds == 0 || ledger.ShippedBytes == 0 {
		return nil, errors.New("bench: comm probe recorded no attributable rounds")
	}
	// Shipped bytes came through a channel, so Channels > 0 as well.
	return &perfdb.Comm{
		BytesPerRound:      float64(ledger.ShippedBytes) / float64(ledger.Rounds),
		InvariantSkipShare: float64(ledger.SilentChannelRounds) / float64(uint64(ledger.Channels)*uint64(ledger.Rounds)),
	}, nil
}

// refEncoding is the denominator of every ratio: the unoptimized
// reference wire format, measured in the same process as the optimized
// tiers.
const refEncoding = "unopt"

// CompareSyncRatios gates cur against base on the opt/unopt RATIO per
// (hosts, tier): ratio_cur may exceed ratio_base by at most tol plus the
// summed relative noise of the four measurements behind the two ratios
// (capped at perfdb.MaxNoiseFrac). Machine speed cancels out of both sides, so
// the comparison holds across hardware; allocations are compared
// absolutely, when they can be (allocsComparable). Rows missing a unopt
// reference for their host count are skipped.
func CompareSyncRatios(base, cur *perfdb.Record, tol float64) error {
	violations := ratioViolations(base, cur, tol)
	if len(violations) == 0 {
		return nil
	}
	msg := "sync hot-path ratio regression vs baseline (opt/unopt, machine-independent):"
	for _, v := range violations {
		msg += "\n  " + v.String()
	}
	return errors.New(msg)
}

// ratioViolation is one failed (hosts, tier) comparison.
type ratioViolation struct {
	Hosts      int
	Encoding   string
	BaseRatio  float64
	CurRatio   float64
	Band       float64
	AllocsBase int64
	AllocsCur  int64
	Alloc      bool
}

func (v ratioViolation) String() string {
	if v.Alloc {
		return fmt.Sprintf("hosts=%d %s: allocs/op regressed %d -> %d", v.Hosts, v.Encoding, v.AllocsBase, v.AllocsCur)
	}
	return fmt.Sprintf("hosts=%d %s: opt/unopt ratio regressed %.3f -> %.3f (+%.1f%%, band +%.1f%%)",
		v.Hosts, v.Encoding, v.BaseRatio, v.CurRatio, 100*(v.CurRatio/v.BaseRatio-1), 100*v.Band)
}

func rowIndex(rec *perfdb.Record) map[string]*perfdb.BenchResult {
	idx := make(map[string]*perfdb.BenchResult, len(rec.Benchmarks))
	for i := range rec.Benchmarks {
		r := &rec.Benchmarks[i]
		idx[r.Name] = r
	}
	return idx
}

func relNoise(r *perfdb.BenchResult) float64 {
	if r.NsPerOp <= 0 {
		return 0
	}
	return float64(r.NoiseNs) / float64(r.NsPerOp)
}

// ratioBand is the tolerance for one (hosts, tier) ratio comparison: tol
// plus every contributing measurement's relative noise, capped.
func ratioBand(tol float64, rows ...*perfdb.BenchResult) float64 {
	noise := 0.0
	for _, r := range rows {
		noise += relNoise(r)
	}
	return tol + min(noise, perfdb.MaxNoiseFrac)
}

// allocsComparable reports whether cur's allocs/op can be held against
// base's. A sync encodes on min(GOMAXPROCS, peers) goroutines
// (par.RangeWorkers), each with its own scratch, so allocs/op is a function
// of the scheduler width: the absolute comparison holds only against a
// baseline pinned at the same GOMAXPROCS.
func allocsComparable(base, cur *perfdb.Record) bool {
	return base.Fingerprint.GOMAXPROCS == cur.Fingerprint.GOMAXPROCS
}

func ratioViolations(base, cur *perfdb.Record, tol float64) []ratioViolation {
	baseIdx, curIdx := rowIndex(base), rowIndex(cur)
	gateAllocs := allocsComparable(base, cur)
	var out []ratioViolation
	for i := range cur.Benchmarks {
		c := &cur.Benchmarks[i]
		b, ok := baseIdx[c.Name]
		if !ok {
			continue
		}
		// Allocations gate every row, the reference included.
		if gateAllocs && c.AllocsPerOp > b.AllocsPerOp {
			out = append(out, ratioViolation{Hosts: c.Hosts, Encoding: c.Encoding,
				Alloc: true, AllocsBase: b.AllocsPerOp, AllocsCur: c.AllocsPerOp})
		}
		if c.Encoding == refEncoding {
			continue
		}
		cRef := curIdx[syncName(c.Hosts, refEncoding)]
		bRef := baseIdx[syncName(c.Hosts, refEncoding)]
		if cRef == nil || bRef == nil || cRef.NsPerOp <= 0 || bRef.NsPerOp <= 0 || b.NsPerOp <= 0 {
			continue
		}
		curRatio := float64(c.NsPerOp) / float64(cRef.NsPerOp)
		baseRatio := float64(b.NsPerOp) / float64(bRef.NsPerOp)
		band := ratioBand(tol, c, cRef, b, bRef)
		if curRatio > baseRatio*(1+band) {
			out = append(out, ratioViolation{Hosts: c.Hosts, Encoding: c.Encoding,
				BaseRatio: baseRatio, CurRatio: curRatio, Band: band})
		}
	}
	return out
}

// guardTol is the guard's fractional ratio tolerance before noise
// widening; allocs/op may never regress.
const guardTol = 0.10

// guardHosts and guardTiers are the rows the guard measures: the optimized
// wire format against the unopt reference, at two and eight hosts.
var (
	guardHosts = []int{2, 8}
	guardTiers = []string{"auto", refEncoding}
)

// GuardSyncBench is the hot-path regression guard behind `make check`: it
// re-measures the sync hot path with tracing disabled (the default — no
// recorder attached) in two tiers — auto and the unopt reference wire
// format — in the same process (DESIGN.md §4.9), and gates them against
// the BENCH_sync.json baseline, a perfdb record. Those two tiers cover both
// wire formats; the forced-encoding rows only vary payload layout, and the
// traced states are measured by BenchmarkSyncHotPathTrace, not gated.
//
// It gates on opt/unopt ratios with a noise-aware band —
// machine-independent, so BENCH_sync.json never needs re-pinning for
// hardware churn — and hard-fails on any allocation regression against a
// baseline pinned at this GOMAXPROCS (allocsComparable). perfDB,
// when non-empty, is the history file the guard's measurements (absolute
// numbers, noise, comm counters) are appended to regardless of gate
// outcome: the trajectory must record regressions too.
//
// Both the baseline and the guard measurement are min-over-reps (see
// measureReps), so a tight tolerance stays meaningful on a noisy machine.
// Rows that still exceed it are re-measured up to guardRetries times before
// the guard fails: a transient load spike clears on a later measurement, a
// real hot-path regression does not. Allocation regressions are
// deterministic, so retries never mask one.
func GuardSyncBench(w io.Writer, p Params, baselinePath string, perfDB string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench: reading baseline: %w", err)
	}
	var base perfdb.Record
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench: parsing baseline %s: %w", baselinePath, err)
	}
	baseIdx := rowIndex(&base)
	for _, h := range guardHosts {
		for _, tier := range guardTiers {
			if baseIdx[syncName(h, tier)] == nil {
				return fmt.Errorf("bench: baseline %s has no %s row — rerun `make bench-pin`", baselinePath, syncName(h, tier))
			}
		}
	}
	fmt.Fprintf(w, "host fingerprint:     %s\n", perfdb.Probe())
	fmt.Fprintf(w, "baseline fingerprint: %s\n", base.Fingerprint)

	cur, err := SyncBenchTiers(p, guardHosts, guardTiers)
	if err != nil {
		return err
	}
	if cur.Graph != base.Graph {
		return fmt.Errorf("bench: guard config %q does not match baseline %q — rerun `make bench-pin`", cur.Graph, base.Graph)
	}
	// Five re-measure rounds: a floor takes a while to surface on a small
	// machine, and a retry only ever lowers the estimate, so extra rounds
	// trade guard latency for gate stability without ever masking a real
	// regression. The unopt reference of an offending host count is
	// re-measured alongside the tier — both ends of the ratio deserve the
	// transient-load benefit.
	const guardRetries = 5
	for retry := 0; retry < guardRetries; retry++ {
		bad := violatingRows(&base, cur, guardTol)
		if len(bad) == 0 {
			break
		}
		fmt.Fprintf(w, "re-measuring %d row(s) over tolerance (transient-load check %d/%d)\n",
			len(bad), retry+1, guardRetries)
		for _, i := range bad {
			row := cur.Benchmarks[i]
			names := []string{row.Encoding}
			if row.Encoding != refEncoding {
				names = append(names, refEncoding)
			}
			for _, name := range names {
				rp, err := SyncBenchTiers(p, []int{row.Hosts}, []string{name})
				if err != nil {
					return err
				}
				nr := rp.Benchmarks[0]
				if cr := rowIndex(cur)[nr.Name]; nr.NsPerOp < cr.NsPerOp {
					cr.NsPerOp = nr.NsPerOp
					cr.NoiseNs = nr.NoiseNs
				}
				fmt.Fprintf(w, "  hosts=%d %s: %d ns/op\n", row.Hosts, name, nr.NsPerOp)
			}
		}
	}
	if perfDB != "" {
		if comm, err := CommProbe(p, 2); err == nil {
			cur.Comm = comm
		} else {
			fmt.Fprintf(w, "comm probe failed (history record carries timings only): %v\n", err)
		}
		cur.Label = "sync-guard"
		if err := perfdb.Append(perfDB, cur); err != nil {
			return fmt.Errorf("bench: recording guard measurement: %w", err)
		}
		fmt.Fprintf(w, "recorded to %s (gluon-perf shows the trajectory)\n", perfDB)
	}
	writeGuardTable(w, &base, cur)
	return CompareSyncRatios(&base, cur, guardTol)
}

// writeGuardTable prints the comparison the guard just gated on.
func writeGuardTable(w io.Writer, base, cur *perfdb.Record) {
	baseIdx, curIdx := rowIndex(base), rowIndex(cur)
	baseAllocs := func(b *perfdb.BenchResult) string {
		if b == nil {
			return "0"
		}
		return strconv.FormatInt(b.AllocsPerOp, 10)
	}
	if !allocsComparable(base, cur) {
		fmt.Fprintf(w, "allocs/op not comparable: baseline pinned at GOMAXPROCS=%d, this run at %d — gating ratios only\n",
			base.Fingerprint.GOMAXPROCS, cur.Fingerprint.GOMAXPROCS)
		baseAllocs = func(*perfdb.BenchResult) string { return "n/c" }
	}
	fmt.Fprintf(w, "%-6s %-14s %11s %11s %8s %7s %10s %10s\n",
		"hosts", "tier", "base ratio", "cur ratio", "delta", "noise", "base a/op", "cur a/op")
	for i := range cur.Benchmarks {
		c := &cur.Benchmarks[i]
		b := baseIdx[c.Name]
		if c.Encoding == refEncoding {
			fmt.Fprintf(w, "%-6d %-14s %11s %11s %8s %7s %10s %10d   (%d ns/op reference)\n",
				c.Hosts, c.Encoding, "1.000", "1.000", "ref", "", baseAllocs(b), c.AllocsPerOp, c.NsPerOp)
			continue
		}
		cRef := curIdx[syncName(c.Hosts, refEncoding)]
		bRef := baseIdx[syncName(c.Hosts, refEncoding)]
		ratioStr, baseStr, deltaStr, noiseStr := "n/a", "n/a", "n/a", ""
		if cRef != nil && cRef.NsPerOp > 0 {
			curRatio := float64(c.NsPerOp) / float64(cRef.NsPerOp)
			ratioStr = fmt.Sprintf("%.3f", curRatio)
			noiseStr = fmt.Sprintf("±%.1f%%", 100*(relNoise(c)+relNoise(cRef)))
			if b != nil && bRef != nil && bRef.NsPerOp > 0 {
				baseRatio := float64(b.NsPerOp) / float64(bRef.NsPerOp)
				baseStr = fmt.Sprintf("%.3f", baseRatio)
				deltaStr = fmt.Sprintf("%+.1f%%", 100*(curRatio/baseRatio-1))
			}
		}
		fmt.Fprintf(w, "%-6d %-14s %11s %11s %8s %7s %10s %10d\n",
			c.Hosts, c.Encoding, baseStr, ratioStr, deltaStr, noiseStr, baseAllocs(b), c.AllocsPerOp)
	}
}

// violatingRows returns indices into cur.Benchmarks whose row regresses
// versus its baseline counterpart.
func violatingRows(base, cur *perfdb.Record, tol float64) []int {
	var bad []int
	for _, v := range ratioViolations(base, cur, tol) {
		for i, c := range cur.Benchmarks {
			if c.Hosts == v.Hosts && c.Encoding == v.Encoding {
				bad = append(bad, i)
				break
			}
		}
	}
	return bad
}
