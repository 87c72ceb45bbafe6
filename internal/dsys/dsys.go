// Package dsys is the distributed BSP runner that turns (engine + Gluon)
// into a distributed graph analytics system: D-Ligra, D-Galois, and D-IrGL
// are all instances of the same loop here, differing only in the Program
// the algorithm packages construct (which engine executes each round).
//
// The execution model is the paper's §2.2: rounds of local computation on
// each host's partition, a field synchronization between rounds, and a
// global quiescence check (all-reduce of active-work counts).
package dsys

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gluon/internal/bitset"
	"gluon/internal/ckpt"
	"gluon/internal/comm"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/trace"
)

// Program is one host's instance of a vertex program bound to a concrete
// engine. The algorithm packages provide constructors per engine.
type Program interface {
	// Name identifies the algorithm ("bfs", "cc", "pr", "sssp").
	Name() string
	// Init initializes fields (possibly with one-time synchronization) and
	// returns the initially active local proxies.
	Init() (*bitset.Bitset, error)
	// Round applies the operator over the frontier and returns the set of
	// locally updated proxies. Round only reads the frontier. The returned
	// set belongs to the program, which may reuse it from the Round after
	// next on, so it stays valid through the next Round: the runner hands
	// it to Sync, which edits it, then to the next Round as its frontier.
	//
	// The runner calls Round once per round, but on a host whose frontier
	// is non-empty it calls it while the previous round's termination
	// all-reduce is still in flight, so Round must not start a collective
	// of its own (the runner's all-reduces share one tag).
	Round(frontier *bitset.Bitset) (*bitset.Bitset, error)
	// Sync synchronizes the program's fields through Gluon. On return,
	// updated holds the next frontier (Gluon consumes shipped mirror bits
	// and adds remotely-written proxies).
	Sync(updated *bitset.Bitset) error
	// Finalize reconciles final values onto all proxies (for output).
	Finalize() error
	// MasterValue reads the final value of a master proxy, as float64
	// (integer labels convert exactly below 2^53).
	MasterValue(lid uint32) float64
}

// ProgramFactory builds one host's Program over its partition and substrate.
type ProgramFactory func(p *partition.Partition, g *gluon.Gluon) (Program, error)

// HostResult carries one host's measurements for a run.
type HostResult struct {
	Host        int
	Rounds      int
	ComputeTime time.Duration
	// SyncTime is Gluon sync plus the termination wait that the next
	// round's compute, run while the verdict was in flight, did not cover.
	SyncTime time.Duration
	Gluon    gluon.Stats
}

// Result aggregates a distributed run.
type Result struct {
	Algorithm string
	NumHosts  int
	Rounds    int
	// Time is the end-to-end wall time of the slowest host (excluding
	// partitioning), the paper's execution-time metric.
	Time time.Duration
	// MaxCompute sums per-round maxima of compute time across hosts — the
	// "Computation (max across hosts)" bar of Figure 10.
	MaxCompute time.Duration
	// TotalCommBytes is the global field-sync communication volume.
	TotalCommBytes uint64
	// MaxComm sums per-round maxima of sync time across hosts — the
	// communication analogue of MaxCompute, so compute/comm skew is
	// visible without tracing.
	MaxComm time.Duration
	Hosts   []HostResult
	// Values holds the converged labels indexed by global ID (collected
	// from masters) when CollectValues was set.
	Values []float64
}

// RunConfig configures a distributed run on the in-process transport.
type RunConfig struct {
	Hosts         int
	Policy        partition.Kind
	Opt           gluon.Options
	PolicyOptions partition.Options
	// CollectValues gathers converged per-node values into Result.Values.
	CollectValues bool
	// MaxRounds aborts runaway programs; 0 means no limit.
	MaxRounds int
	// Net adds simulated link costs to the in-process transport, making
	// wall-clock time sensitive to communication volume as it is on real
	// clusters. Zero value = instant delivery.
	Net comm.NetModel
	// Trace, when non-nil, records per-phase spans from every host's
	// substrate, transport, and BSP driver into one session (export with
	// Trace.WriteFile, analyze with cmd/gluon-trace). Nil disables tracing.
	Trace *trace.Trace
	// Watchdog, when non-nil, runs the straggler/stall watchdog over the
	// run: heartbeats are read from the local hosts' recorders (and, under
	// RunSingle, gossiped with the other processes on comm.TagHeartbeat),
	// rounds exceeding Factor× the trailing-median round time are flagged
	// with the suspect host and phase named, and a stall persisting past
	// StallTimeout fails the cluster through the PeerError path with a
	// *trace.StallError diagnosis attached. Nil disables the watchdog entirely (no gossip, no
	// goroutines). Works with or without Trace: without, a hidden disabled
	// session carries the liveness counters at zero event cost.
	Watchdog *trace.WatchdogConfig
	// Checkpoint, when non-nil, enables periodic asynchronous checkpoints:
	// at every Every-th round boundary the cluster agrees on the epoch via
	// a round-cursor all-reduce (the barrier token), each host copies its
	// program field state + frontier, and a background
	// writer persists the snapshot (versioned binary format, CRC, atomic
	// rename, last-Keep retention). Requires the program to implement
	// Checkpointable. Nil disables checkpointing entirely: the BSP loop is
	// untouched and costs nothing extra.
	Checkpoint *ckpt.Options
	// Restore starts the host from its newest complete on-disk checkpoint
	// instead of Init: it rendezvouses with its peers on a common epoch
	// (the cluster minimum), runs the memoization exchange with them,
	// imports field state, and resumes the loop at the checkpointed round.
	// Requires Checkpoint. Used both for cold cluster restarts (every host
	// restores) and for a replacement host rejoining survivors (see
	// Rejoin).
	Restore bool
	// Rejoin lets a survivor of a peer failure hold at the rejoin
	// rendezvous and roll back to the newest cluster-wide checkpoint
	// epoch instead of failing the run, resuming once a replacement host
	// dials back in (comm.RejoinTCP) and restores. Effective on transports
	// that propagate the HOLD announcement by poisoning (TCP); requires
	// Checkpoint. The rendezvous waits up to 120 s for each peer.
	Rejoin bool

	// wd is the process-local watchdog handle, plumbed by
	// RunWithTransports/RunSingle so the driver can suspend stall
	// escalation across checkpoint barriers and rejoin windows.
	wd *runWatchdog
}

// Run partitions the graph, spins up one goroutine per host over an
// in-process hub, runs the program to global quiescence, and aggregates
// results. It is the all-in-one entry point used by tests, examples, and
// the benchmark harness.
//
// When cfg.PolicyOptions carries no degree tables, Run derives them from
// the edge list so that degree-balanced chunking and the HVC threshold work
// out of the box.
func Run(numNodes uint64, edges []graph.Edge, cfg RunConfig, factory ProgramFactory) (*Result, error) {
	if cfg.PolicyOptions.OutDegrees == nil && cfg.PolicyOptions.InDegrees == nil {
		outDeg := make([]uint32, numNodes)
		inDeg := make([]uint32, numNodes)
		for _, e := range edges {
			outDeg[e.Src]++
			inDeg[e.Dst]++
		}
		cfg.PolicyOptions.OutDegrees = outDeg
		cfg.PolicyOptions.InDegrees = inDeg
	}
	pol, err := partition.NewPolicy(cfg.Policy, numNodes, cfg.Hosts, cfg.PolicyOptions)
	if err != nil {
		return nil, err
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		return nil, err
	}
	return RunPartitioned(parts, cfg, factory)
}

// RunPartitioned runs over pre-built partitions (lets callers reuse a
// partitioning across optimization configurations, as Figure 10 does).
func RunPartitioned(parts []*partition.Partition, cfg RunConfig, factory ProgramFactory) (*Result, error) {
	hub := comm.NewHubWithModel(len(parts), cfg.Net)
	defer hub.Close()
	return RunWithTransports(parts, hub.Endpoints(), cfg, factory)
}

// RunWithTransports runs over pre-built partitions and caller-supplied
// transports — one per host, e.g. TCP endpoints for clusters of separate
// processes (see examples/tcp-cluster).
//
// Fault contract: a BSP round is a global rendezvous, so one failed host
// means the job cannot complete. When any host's driver returns an error,
// the failure is propagated to every other transport via comm.PeerFailer:
// survivors blocked in a sync or collective unblock with a *comm.PeerError
// naming the dead host (cascading host by host until every driver has
// returned), and RunWithTransports reports the root cause instead of
// hanging on wg.Wait forever.
func RunWithTransports(parts []*partition.Partition, ts []comm.Transport, cfg RunConfig, factory ProgramFactory) (*Result, error) {
	hosts := len(parts)
	if len(ts) != hosts {
		return nil, fmt.Errorf("dsys: %d partitions but %d transports", hosts, len(ts))
	}
	adoptFlightTrace(&cfg)
	if cfg.Watchdog != nil {
		ensureLivenessTrace(&cfg)
		eps := make([]wdEndpoint, hosts)
		for h := 0; h < hosts; h++ {
			eps[h] = wdEndpoint{host: h, t: ts[h]}
		}
		wd := startRunWatchdog(cfg.Trace, eps, hosts, *cfg.Watchdog)
		defer wd.stop()
		cfg.wd = wd
	}
	results := make([]*hostRun, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			results[h], errs[h] = runHostRecover(parts[h], ts[h], cfg, factory)
			if errs[h] != nil {
				// Fail loudly: declare this host dead to every survivor so
				// their pending receives return *comm.PeerError instead of
				// blocking on messages that will never arrive.
				for i, pt := range ts {
					if i == h {
						continue
					}
					if pf, ok := pt.(comm.PeerFailer); ok {
						pf.FailPeer(h, errs[h])
					}
				}
				// And poison this host's own mailboxes: helper goroutines
				// (watchdog gossip drains, late collectives) parked in
				// Recv/RecvAny on the failing host's transport must fail
				// fast too, not sit blocked until the transport closes.
				if pf, ok := ts[h].(comm.PeerFailer); ok {
					for i := range ts {
						if i != h {
							pf.FailPeer(i, errs[h])
						}
					}
				}
			}
		}(h)
	}
	wg.Wait()
	if h, err := firstFailure(errs); err != nil {
		return nil, fmt.Errorf("dsys: host %d: %w", h, err)
	}
	return aggregate(parts, results, cfg)
}

// RunSingle runs ONE host of a multi-process cluster: the local partition
// over a caller-supplied transport (typically a TCP endpoint whose peers
// live in other OS processes). It is the per-process entry point behind
// examples/tcp-cluster's -host mode: every process calls RunSingle with its
// own partition and rank, and the BSP rounds rendezvous over the wire.
//
// The returned Result aggregates this host only — cluster-wide maxima
// (MaxCompute, Time) reflect the local host, and Values (with
// CollectValues) holds only local masters' entries; merge across processes
// if global views are needed. The watchdog, when configured, gossips with
// the remote peers over TagHeartbeat and can only poison this process's
// transport on escalation; remote processes run their own watchdogs and
// reach the same verdict independently.
//
// Fault contract: when the local driver fails, the transport is closed
// before returning, so remote peers' pending receives fail with a
// *comm.PeerError naming this host instead of blocking forever.
func RunSingle(p *partition.Partition, t comm.Transport, cfg RunConfig, factory ProgramFactory) (*Result, error) {
	adoptFlightTrace(&cfg)
	if cfg.Watchdog != nil {
		ensureLivenessTrace(&cfg)
		wd := startRunWatchdog(cfg.Trace, []wdEndpoint{{host: p.HostID, t: t}}, t.NumHosts(), *cfg.Watchdog)
		defer wd.stop()
		cfg.wd = wd
	}
	hr, err := runHostRecover(p, t, cfg, factory)
	if err != nil {
		t.Close() // drop the mesh so remote receives poison loudly
		return nil, fmt.Errorf("dsys: host %d: %w", p.HostID, err)
	}
	return aggregate([]*partition.Partition{p}, []*hostRun{hr}, cfg)
}

// firstFailure picks the error to report for a failed run. The host whose
// transport saw the fault fails with a primary error: a *comm.PeerError
// whose cause is neither another PeerError nor comm.ErrConnLost (a
// malformed frame, an injected fault). Every other host then fails with a
// PeerError naming a host that failed before it, because the runner said
// so or because its connection dropped. The best report names the host
// with the primary error and wraps it, so it says which host failed and
// why; the primary error alone names only the peer it blames, for a
// truncated frame the sender. Then come a primary error, any PeerError and
// any error; the lowest host wins among equals.
func firstFailure(errs []error) (int, error) {
	primary := func(err error) bool {
		var pe *comm.PeerError
		return errors.As(err, &pe) && !errors.As(pe.Err, new(*comm.PeerError)) &&
			!errors.Is(pe.Err, comm.ErrConnLost)
	}
	rank := func(err error) int {
		var pe *comm.PeerError
		switch {
		case err == nil:
			return 0
		case !errors.As(err, &pe):
			return 1
		case pe.Host >= 0 && pe.Host < len(errs) && primary(errs[pe.Host]):
			return 4
		case primary(err):
			return 3
		}
		return 2
	}
	first, best := -1, 0
	for h, err := range errs {
		if r := rank(err); r > best {
			first, best = h, r
		}
	}
	if first < 0 {
		return -1, nil
	}
	return first, errs[first]
}

// adoptFlightTrace lets an untraced run ride the armed flight recorder's
// ring (flight-recorder mode: record cheaply, explain later). When the
// process armed a FlightRecorder but the caller passed no Trace, the
// recorder's own modest always-on session becomes the run's trace, so a
// crash bundle has a tail to freeze. Disarmed or explicitly traced runs
// are untouched.
func adoptFlightTrace(cfg *RunConfig) {
	if cfg.Trace == nil {
		cfg.Trace = trace.Armed().Trace()
	}
}

// runHostRecover is runHost behind a panic barrier: a panic anywhere in the
// BSP round loop (a program's Round, the substrate, the driver itself)
// becomes an error that propagates through the normal FailPeer path — so
// one buggy operator fails the cluster loudly instead of tearing the whole
// process down mid-rendezvous — after freezing a postmortem bundle with the
// panic value and stack.
func runHostRecover(p *partition.Partition, t comm.Transport, cfg RunConfig, factory ProgramFactory) (hr *hostRun, err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			n := runtime.Stack(buf, false)
			err = fmt.Errorf("dsys: panic in BSP round loop: %v", v)
			rec := cfg.Trace.Recorder(p.HostID)
			trace.Crash(trace.DumpInfo{
				Trigger: trace.TriggerPanic,
				Host:    p.HostID,
				Peer:    -1,
				Round:   int(rec.Round()),
				Phase:   rec.LivePhase(),
				Cause:   err,
				Detail:  string(buf[:n]),
			})
			hr = nil
		}
	}()
	return runHost(p, t, cfg, factory)
}

// dumpRestoreFailure freezes a postmortem for a failed restore or rejoin —
// the recovery path itself dying is exactly when an operator needs the
// forensics most.
func dumpRestoreFailure(host int, rec *trace.Recorder, cause error) {
	trace.Crash(trace.DumpInfo{
		Trigger: trace.TriggerRestoreFailed,
		Host:    host,
		Peer:    -1,
		Round:   int(rec.Round()),
		Phase:   rec.LivePhase(),
		Cause:   cause,
	})
}

// hostRun is one host's raw outcome.
type hostRun struct {
	res          HostResult
	wall         time.Duration
	perRoundComp []time.Duration
	perRoundSync []time.Duration
	values       map[uint64]float64
	name         string
}

// runHost is the per-host BSP driver.
func runHost(p *partition.Partition, t comm.Transport, cfg RunConfig, factory ProgramFactory) (*hostRun, error) {
	rec := cfg.Trace.Recorder(p.HostID)
	var restored *ckpt.Snapshot
	var agreed uint64
	if cfg.Restore {
		if cfg.Checkpoint == nil {
			return nil, errors.New("dsys: Restore requires Checkpoint options")
		}
		snap, err := ckpt.Latest(cfg.Checkpoint.Dir, p.HostID)
		if err != nil {
			dumpRestoreFailure(p.HostID, nil, err)
			return nil, err
		}
		if snap.NumHosts != t.NumHosts() {
			err := fmt.Errorf("dsys: checkpoint is for %d hosts, cluster has %d",
				snap.NumHosts, t.NumHosts())
			dumpRestoreFailure(p.HostID, nil, err)
			return nil, err
		}
		// The rendezvous comes before the memoization exchange in gluon.New:
		// survivors of a live failure can only answer the exchange once they
		// have left it (they run Memoize there too). The watchdog sleeps
		// until the exchange is over.
		cfg.wd.suspendWatch()
		if agreed, err = rejoinRendezvous(t, nil, snap.Epoch); err != nil {
			cfg.wd.resumeWatch()
			dumpRestoreFailure(p.HostID, rec, err)
			return nil, err
		}
		restored = snap
	}
	g, err := gluon.New(p, t, cfg.Opt)
	if restored != nil {
		cfg.wd.resumeWatch()
	}
	if err != nil {
		return nil, err
	}
	// Attach this host's trace recorder to the substrate and, when the
	// transport can carry frame-level events, to the transport too. Events
	// emitted before the first round (Init syncs) are stamped round -1.
	if rec != nil {
		g.SetRecorder(rec)
		if tc, ok := t.(comm.TraceCarrier); ok {
			tc.SetTrace(rec)
		}
	}
	tr := rec.Enabled()
	prog, err := factory(p, g)
	if err != nil {
		return nil, err
	}
	var cp Checkpointable
	var cw *ckpt.Writer
	every := 0
	if cfg.Checkpoint != nil {
		var ok bool
		if cp, ok = prog.(Checkpointable); !ok {
			return nil, fmt.Errorf("dsys: checkpointing enabled but program %q does not implement Checkpointable",
				prog.Name())
		}
		// The flight recorder's "last checkpoint epoch" is durable state,
		// not a submission.
		cw = ckpt.NewWriter(*cfg.Checkpoint, p.HostID, func(epoch uint64, err error) {
			if err == nil {
				trace.Armed().SetLastCheckpoint(epoch)
			}
		})
		defer cw.Close()
		every = cfg.Checkpoint.EveryOrDefault()
	}
	hr := &hostRun{name: prog.Name()}
	start := time.Now()
	round := 0
	var frontier *bitset.Bitset

	// checkpoint agrees on the epoch with a round-cursor all-reduce (the
	// barrier token: every host must present the same cursor), copies the
	// host's state, and hands the snapshot to the background writer. Only
	// the token + copy run inline; the disk write overlaps the next rounds.
	checkpoint := func(epoch int) error {
		cfg.wd.suspendWatch()
		defer cfg.wd.resumeWatch()
		var t0 int64
		if tr {
			t0 = rec.Now()
		}
		tok, err := comm.AllReduceMax(t, uint64(epoch))
		if err != nil {
			return err
		}
		if tok != uint64(epoch) {
			return fmt.Errorf("dsys: checkpoint token mismatch at epoch %d: cluster max %d", epoch, tok)
		}
		snap, err := captureSnapshot(p, cp, hr.name, uint64(epoch), frontier)
		if err != nil {
			return err
		}
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseCkpt, Start: t0, Dur: rec.Now() - t0,
				Peer: -1, Detail: fmt.Sprintf("epoch %d", epoch)})
		}
		return cw.Submit(snap)
	}

	// rollBack is what every recovery does once the exchange orders are
	// built: load the agreed epoch when it is not snap's, restore the
	// program and the frontier from it, and rewind the cursor.
	rollBack := func(snap *ckpt.Snapshot, epoch uint64) (err error) {
		if epoch != snap.Epoch {
			if snap, err = ckpt.Load(cfg.Checkpoint.Dir, p.HostID, epoch); err != nil {
				return err
			}
		}
		if frontier, err = restoreSnapshot(p, cp, snap); err != nil {
			return err
		}
		round = int(epoch)
		// Re-executed rounds would misalign the per-round series with the
		// round index; drop entries past the rollback point (cumulative
		// totals keep the re-executed work — it was really spent).
		hr.perRoundComp = hr.perRoundComp[:min(round, len(hr.perRoundComp))]
		hr.perRoundSync = hr.perRoundSync[:min(round, len(hr.perRoundSync))]
		return nil
	}

	// rejoin is the recovery path for a *comm.PeerError when rejoin is
	// enabled: hold at the rendezvous (watchdog suspended so the stalled
	// cluster is not escalated while it recovers), agree on the newest
	// epoch every host can load, re-run the memoization exchange with the
	// replacement, and roll back. It returns nil once the host has rolled
	// back, and otherwise the error the run fails with: cause itself when
	// rejoin does not apply.
	rejoin := func(cause error) (rerr error) {
		var pe *comm.PeerError
		if !cfg.Rejoin || cw == nil || !errors.As(cause, &pe) {
			return cause
		}
		defer func() {
			if rerr != nil {
				dumpRestoreFailure(p.HostID, rec, rerr)
			}
		}()
		cfg.wd.suspendWatch()
		defer cfg.wd.resumeWatch()
		// The newest epoch may still be with the asynchronous writer: a peer
		// that dies a round after a checkpoint boundary can be noticed before
		// this host's own file has landed.
		cw.Wait()
		snap, err := ckpt.Latest(cfg.Checkpoint.Dir, p.HostID)
		if err != nil {
			return fmt.Errorf("dsys: rejoin after %v: %w", cause, err)
		}
		epoch, err := rejoinRendezvous(t, g, snap.Epoch)
		if err != nil {
			return err
		}
		if err := g.Memoize(); err != nil {
			return err
		}
		return rollBack(snap, epoch)
	}

	if restored != nil {
		if err := rollBack(restored, agreed); err != nil {
			dumpRestoreFailure(p.HostID, rec, err)
			return nil, err
		}
		rec.SetRound(int32(round))
	} else {
		if err := comm.Barrier(t); err != nil {
			return nil, err
		}
		if frontier, err = prog.Init(); err != nil {
			return nil, err
		}
		if cw != nil {
			// Epoch 0: always have a checkpoint on disk, so a failure in
			// the very first rounds is recoverable too.
			if err := checkpoint(0); err != nil {
				return nil, err
			}
		}
	}
	// compute runs one Round and keeps when it started on the trace clock,
	// for the caller to emit its span once the round is known to count.
	type computed struct {
		updated *bitset.Bitset
		t0      int64
		dur     time.Duration
	}
	compute := func(frontier *bitset.Bitset) (c computed, err error) {
		rec.SetLivePhase(trace.PhaseCompute)
		c.t0 = rec.Now()
		start := time.Now()
		c.updated, err = prog.Round(frontier)
		c.dur = time.Since(start)
		return c, err
	}
	// next is the round computed while the previous round's termination
	// all-reduce was in flight; nil updated when there is none.
	var next computed
	for {
		if cfg.MaxRounds > 0 && round >= cfg.MaxRounds {
			break
		}
		rec.SetRound(int32(round))
		cur := next
		next = computed{}
		if cur.updated == nil {
			var err error
			if cur, err = compute(frontier); err != nil {
				return nil, err
			}
		}
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseCompute, Start: cur.t0, Dur: int64(cur.dur), Peer: -1})
		}
		hr.res.ComputeTime += cur.dur
		hr.perRoundComp = append(hr.perRoundComp, cur.dur)
		updated := cur.updated

		syncStart := time.Now()
		rec.SetLivePhase(trace.PhaseSync)
		if err := prog.Sync(updated); err != nil {
			if err = rejoin(err); err != nil {
				return nil, err
			}
			continue
		}
		rec.SetLivePhase(trace.PhaseBarrier)
		var t0 int64
		if tr {
			t0 = rec.Now()
		}
		// The termination all-reduce doubles as the round barrier. Post the
		// count, then run the next round while the verdict is in flight. A
		// host with work of its own knows the verdict cannot be "stop", so
		// the round it computes always counts. It does not compute ahead a
		// round past MaxRounds, nor after a round that ends at a checkpoint,
		// whose snapshot must see the state before the next compute.
		active := uint64(updated.Count())
		pending := comm.StartAllReduce(t, active, comm.Sum)
		if active > 0 && (cfg.MaxRounds == 0 || round+1 < cfg.MaxRounds) && (cw == nil || (round+1)%every != 0) {
			var err error
			if next, err = compute(updated); err != nil {
				return nil, err
			}
			rec.SetLivePhase(trace.PhaseBarrier)
		}
		global, err := pending.Wait()
		if err != nil {
			if err = rejoin(err); err != nil {
				return nil, err
			}
			next = computed{}
			continue
		}
		if tr {
			// Posting to verdict: the host's straggler wait, part of which
			// the next round's compute may have covered.
			rec.Emit(trace.Event{Phase: trace.PhaseBarrier, Start: t0, Dur: rec.Now() - t0,
				Peer: -1, Detail: "termination"})
		}
		syncDur := time.Since(syncStart) - next.dur
		hr.res.SyncTime += syncDur
		hr.perRoundSync = append(hr.perRoundSync, syncDur)
		round++
		if global == 0 {
			break
		}
		frontier = updated
		if cw != nil && round%every == 0 {
			if err := checkpoint(round); err != nil {
				if err = rejoin(err); err != nil {
					return nil, err
				}
				continue
			}
		}
	}
	if err := prog.Finalize(); err != nil {
		return nil, err
	}
	if cw != nil {
		// Surface any write error from the final asynchronous checkpoint:
		// a run that "completed" with its protection silently broken
		// should fail loudly instead.
		if err := cw.Close(); err != nil {
			return nil, err
		}
	}
	hr.wall = time.Since(start)
	hr.res.Rounds = round
	hr.res.Gluon = g.Stats()
	hr.res.Host = p.HostID

	if cfg.CollectValues {
		hr.values = make(map[uint64]float64, p.NumMasters)
		for lid := uint32(0); lid < p.NumMasters; lid++ {
			hr.values[p.GID(lid)] = prog.MasterValue(lid)
		}
	}
	return hr, nil
}

// aggregate merges per-host outcomes into a Result.
func aggregate(parts []*partition.Partition, runs []*hostRun, cfg RunConfig) (*Result, error) {
	res := &Result{NumHosts: len(runs)}
	if len(runs) == 0 {
		return res, nil
	}
	res.Algorithm = runs[0].name
	maxRounds := 0
	for _, r := range runs {
		if r.res.Rounds > maxRounds {
			maxRounds = r.res.Rounds
		}
		if r.wall > res.Time {
			res.Time = r.wall
		}
		res.TotalCommBytes += r.res.Gluon.BytesSent()
		res.Hosts = append(res.Hosts, r.res)
	}
	res.Rounds = maxRounds
	// Per-round max across hosts, summed: the paper's max-compute metric,
	// and the same aggregation for sync time so the compute/comm skew per
	// round is visible side by side.
	for round := 0; round < maxRounds; round++ {
		var mc, ms time.Duration
		for _, r := range runs {
			if round < len(r.perRoundComp) && r.perRoundComp[round] > mc {
				mc = r.perRoundComp[round]
			}
			if round < len(r.perRoundSync) && r.perRoundSync[round] > ms {
				ms = r.perRoundSync[round]
			}
		}
		res.MaxCompute += mc
		res.MaxComm += ms
	}
	if cfg.CollectValues {
		res.Values = make([]float64, parts[0].GlobalNodes)
		for _, r := range runs {
			for gid, v := range r.values {
				res.Values[gid] = v
			}
		}
	}
	return res, nil
}

// LoadImbalance returns max/mean of per-host compute time, the §5.4
// imbalance estimate.
func (r *Result) LoadImbalance() float64 {
	if len(r.Hosts) == 0 {
		return 1
	}
	var max, sum time.Duration
	for _, h := range r.Hosts {
		if h.ComputeTime > max {
			max = h.ComputeTime
		}
		sum += h.ComputeTime
	}
	mean := sum / time.Duration(len(r.Hosts))
	if mean == 0 {
		return 1
	}
	return float64(max) / float64(mean)
}
