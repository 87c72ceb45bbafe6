// TCP cluster: run a Gluon system over real sockets instead of the
// in-process hub. Each host gets its own TCP endpoint; the byte streams
// crossing the connections are exactly the payloads Gluon hands to MPI in
// the original system.
//
// Two modes:
//
//   - Demo (default): all hosts live in one process, dialing each other on
//     localhost. Self-contained, verifies against sequential Dijkstra.
//
//     go run ./examples/tcp-cluster
//
//   - Multi-process: launch the binary once per host with -host N and the
//     shared address list. Every process regenerates the same deterministic
//     graph, partitions it identically, and drives only its own rank; the
//     processes rendezvous over TCP exactly like MPI ranks. Each process
//     verifies the masters it owns against Dijkstra.
//
//     go run ./examples/tcp-cluster -host 0 -addrs 127.0.0.1:39200,127.0.0.1:39201 &
//     go run ./examples/tcp-cluster -host 1 -addrs 127.0.0.1:39200,127.0.0.1:39201
//
// With -collect, each process streams its trace to a gluon-trace collector
// (`gluon-trace serve -sessions N -o cluster.json :9123`), which aligns
// the per-process clocks and merges everything onto one timeline — and,
// while the run is live, `gluon-trace top :9123` attaches to the same collector
// and shows per-host round progress, the barrier-gating verdict, and any
// disconnected rank. See README.md in this directory for the full recipe.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"gluon"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/bitset"
	"gluon/internal/ckpt"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	igluon "gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/ref"
	"gluon/internal/trace"
)

func main() {
	var (
		host     = flag.Int("host", -1, "drive only this rank (multi-process mode; requires -addrs)")
		addrsCSV = flag.String("addrs", "", "comma-separated host:port list, one per rank (its length is the cluster size)")
		collect  = flag.String("collect", "", "stream this process's trace to a `gluon-trace serve` collector at this address")
		traceOut = flag.String("trace", "", "write this process's trace to a file")
		watchdog = flag.Bool("watchdog", false, "run the straggler watchdog (heartbeats gossiped between -host processes)")
		wdStall  = flag.Duration("watchdog-stall", 0, "escalate a flagged stall to a cluster failure after this long")
		scale    = flag.Uint("scale", 13, "generated graph has 2^scale nodes")

		ckptDir   = flag.String("ckpt-dir", "", "write periodic per-host checkpoints under this directory (multi-process mode)")
		ckptEvery = flag.Int("ckpt-every", 0, "checkpoint every N rounds (0 = ckpt package default)")
		ckptKeep  = flag.Int("ckpt-keep", 0, "retain the last K checkpoint epochs per host (0 = ckpt package default)")
		restore   = flag.Bool("restore", false, "start as a replacement: load the newest checkpoint from -ckpt-dir and rejoin the live mesh")
		cold      = flag.Bool("cold-restore", false, "with -restore: the whole cluster is restarting together, so form a fresh mesh instead of dialing into a live one")
		rejoin    = flag.Bool("rejoin", false, "survive peer death: roll back to the newest checkpoint and wait for a replacement instead of failing")
		delay     = flag.Duration("round-delay", 0, "sleep this long per round (demo aid: widens the window for killing a rank mid-run)")
		pmDir     = flag.String("postmortem-dir", "", "arm the black-box flight recorder: failures write postmortem bundles (gluon-trace doctor input) under this directory")
	)
	flag.Parse()

	// Every process must derive the identical graph and partitioning, so all
	// inputs are deterministic: fixed generator seed, fixed policy.
	numNodes, edges, err := gluon.Generate(gluon.GraphConfig{
		Kind: "rmat", Scale: *scale, EdgeFactor: 8, Seed: 5, Weighted: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	csr, err := gluon.BuildCSR(numNodes, edges, true)
	if err != nil {
		log.Fatal(err)
	}
	source := csr.MaxOutDegreeNode()

	hosts := 4
	var addrs []string
	if *addrsCSV != "" {
		addrs = strings.Split(*addrsCSV, ",")
		hosts = len(addrs)
	} else {
		addrs = make([]string, hosts)
		for h := range addrs {
			addrs[h] = fmt.Sprintf("127.0.0.1:%d", 39200+h)
		}
	}

	// Partition for the cluster with the hybrid vertex-cut. In multi-process
	// mode every process runs this full partitioning and keeps one slice —
	// wasteful but simple, and bitwise identical across processes.
	out := make([]uint32, numNodes)
	for u := uint32(0); u < csr.NumNodes(); u++ {
		out[u] = csr.OutDegree(u)
	}
	pol, err := partition.NewPolicy(partition.HVC, numNodes, hosts,
		partition.Options{OutDegrees: out, InDegrees: csr.InDegrees()})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		log.Fatal(err)
	}

	var wcfg *trace.WatchdogConfig
	if *watchdog || *wdStall > 0 {
		wcfg = &trace.WatchdogConfig{StallTimeout: *wdStall}
	}

	var ckptOpts *ckpt.Options
	if *ckptDir != "" {
		ckptOpts = &ckpt.Options{Dir: *ckptDir, Every: *ckptEvery, Keep: *ckptKeep}
	} else if *restore || *rejoin {
		log.Fatal("-restore and -rejoin require -ckpt-dir")
	}

	if *host >= 0 {
		runOneHost(*host, addrs, parts, csr, source, wcfg, *collect, *traceOut, *pmDir, ckptOpts, *restore, *cold, *rejoin, *delay)
		return
	}
	runDemo(addrs, parts, csr, source, wcfg, *collect, *traceOut, *pmDir)
}

// armRecorder arms the process-global flight recorder when the operator
// asked for postmortems. The run's trace session is reused when one exists;
// otherwise the recorder keeps its own modest always-on ring that dsys
// adopts, so bundles carry a timeline even with tracing off.
func armRecorder(dir string, tr *trace.Trace, host int, runDesc string) {
	if dir == "" {
		return
	}
	fr := trace.NewFlightRecorder(trace.FlightConfig{Dir: dir, Trace: tr, Host: host})
	fr.SetRunConfig(runDesc)
	fr.SetPoolCounters(comm.PoolCounters)
	trace.Arm(fr)
	log.Printf("flight recorder armed: bundles will land in %s (diagnose with: gluon-trace doctor %s)", dir, dir)
}

// slowProgram wraps a checkpointable program with a fixed per-round sleep,
// so a human running the kill/replace recipe has time to kill a rank.
type slowProgram struct {
	dsys.Program
	delay time.Duration
}

func (s *slowProgram) Round(f *bitset.Bitset) (*bitset.Bitset, error) {
	time.Sleep(s.delay)
	return s.Program.Round(f)
}

func (s *slowProgram) ExportState() ([]ckpt.Section, error) {
	return s.Program.(dsys.Checkpointable).ExportState()
}

func (s *slowProgram) ImportState(secs []ckpt.Section) error {
	return s.Program.(dsys.Checkpointable).ImportState(secs)
}

// runOneHost is multi-process mode: this process drives exactly one rank.
func runOneHost(host int, addrs []string, parts []*partition.Partition, csr *gluon.CSR, source uint32, wcfg *trace.WatchdogConfig, collect, traceOut, pmDir string, ckptOpts *ckpt.Options, restore, cold, rejoin bool, delay time.Duration) {
	if host >= len(addrs) {
		log.Fatalf("-host %d out of range for %d addrs", host, len(addrs))
	}
	hosts := len(addrs)
	prefix := fmt.Sprintf("host %d: ", host)

	var tr *trace.Trace
	if collect != "" || traceOut != "" {
		tr = trace.New(trace.Config{Label: fmt.Sprintf("tcp-cluster host %d/%d", host, hosts)})
	}
	armRecorder(pmDir, tr, host, fmt.Sprintf("tcp-cluster -host %d of %d", host, hosts))

	// Rendezvous with the other processes. The dial is bounded: a rank that
	// never launches fails the mesh with an error naming it. A replacement
	// host (-restore) instead dials into the already-established mesh with
	// the rejoin handshake; the survivors hold at the checkpoint rendezvous
	// until it arrives. A whole-cluster cold restart (-restore -cold-restore
	// on every rank) forms a fresh mesh the normal way and restores from
	// checkpoint once it is up.
	var ep *comm.TCPEndpoint
	var err error
	if restore && !cold {
		ep, err = comm.RejoinTCP(host, addrs, comm.DialConfig{Timeout: 30 * time.Second})
	} else {
		ep, err = comm.DialTCPConfig(host, addrs, comm.DialConfig{Timeout: 30 * time.Second})
	}
	if err != nil {
		log.Fatal(prefix, err)
	}
	defer ep.Close()

	if collect != "" {
		sh, err := trace.StartShipper(trace.ShipperConfig{Addr: collect, Trace: tr})
		if err != nil {
			log.Fatal(prefix, err)
		}
		log.Printf("%sshipping trace to %s (%v); watch live: gluon-trace top %s", prefix, collect, sh.Clock(), collect)
		trace.Armed().SetClock(sh.Clock())
		defer func() {
			if err := sh.Close(); err != nil {
				log.Printf("%strace shipper: %v", prefix, err)
			}
		}()
	}

	res, err := dsys.RunSingle(parts[host], ep, dsys.RunConfig{
		Hosts:         hosts,
		Policy:        partition.HVC,
		Opt:           gluon.Opt(),
		CollectValues: true,
		Trace:         tr,
		Watchdog:      wcfg,
		Checkpoint:    ckptOpts,
		Restore:       restore,
		Rejoin:        rejoin,
	}, func(p *partition.Partition, g *igluon.Gluon) (dsys.Program, error) {
		prog, err := sssp.NewGalois(uint64(source), 0)(p, g)
		if err != nil || delay <= 0 {
			return prog, err
		}
		return &slowProgram{Program: prog, delay: delay}, nil
	})
	if err != nil {
		if pmDir != "" {
			log.Printf("%spostmortem bundles are under %s — diagnose with: gluon-trace doctor %s", prefix, pmDir, pmDir)
		}
		var pe *comm.PeerError
		if errors.As(err, &pe) {
			log.Fatalf("%scluster failed: host %d is dead: %v", prefix, pe.Host, err)
		}
		log.Fatal(prefix, err)
	}

	// The run converged: disarm before teardown. Ranks exit at their own
	// pace, so a faster peer's EOF during our verification below is an
	// orderly goodbye, not a death worth a postmortem bundle.
	trace.Arm(nil)

	// Each process can only check the masters it owns; together the
	// processes cover every node.
	want := ref.SSSP(csr, source)
	p := parts[host]
	for lid := uint32(0); lid < p.NumMasters; lid++ {
		gid := p.GID(lid)
		if float64(want[gid]) != res.Values[gid] {
			log.Fatalf("%snode %d: tcp run got %v, dijkstra got %d", prefix, gid, res.Values[gid], want[gid])
		}
	}
	writeTrace(tr, traceOut, prefix)
	fmt.Printf("%ssssp over TCP: rank %d of %d, %v, %d rounds, %d sync bytes sent; %d local masters verified ✓\n",
		prefix, host, hosts, res.Time, res.Rounds, res.TotalCommBytes, p.NumMasters)
}

// runDemo is the self-contained mode: every rank lives in this process.
func runDemo(addrs []string, parts []*partition.Partition, csr *gluon.CSR, source uint32, wcfg *trace.WatchdogConfig, collect, traceOut, pmDir string) {
	hosts := len(addrs)

	var tr *trace.Trace
	if collect != "" || traceOut != "" {
		tr = trace.New(trace.Config{Label: fmt.Sprintf("tcp-cluster demo %d hosts", hosts)})
	}
	armRecorder(pmDir, tr, 0, fmt.Sprintf("tcp-cluster demo, %d in-process ranks", hosts))

	// Bring up the TCP mesh on localhost. Mesh establishment is bounded: a
	// host that never comes up fails the dial with an error naming it,
	// instead of blocking Accept forever.
	endpoints := make([]comm.Transport, hosts)
	var wg sync.WaitGroup
	var dialErr error
	var mu sync.Mutex
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			ep, err := comm.DialTCPConfig(h, addrs, comm.DialConfig{Timeout: 10 * time.Second})
			if err != nil {
				mu.Lock()
				dialErr = err
				mu.Unlock()
				return
			}
			endpoints[h] = ep
		}(h)
	}
	wg.Wait()
	if dialErr != nil {
		log.Fatal(dialErr)
	}
	defer func() {
		for _, ep := range endpoints {
			if ep != nil {
				ep.Close()
			}
		}
	}()

	if collect != "" {
		sh, err := trace.StartShipper(trace.ShipperConfig{Addr: collect, Trace: tr})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("shipping trace to %s (%v); watch live: gluon-trace top %s", collect, sh.Clock(), collect)
		defer func() {
			if err := sh.Close(); err != nil {
				log.Printf("trace shipper: %v", err)
			}
		}()
	}

	res, err := dsys.RunWithTransports(parts, endpoints, dsys.RunConfig{
		Hosts:         hosts,
		Policy:        partition.HVC,
		Opt:           gluon.Opt(),
		CollectValues: true,
		Trace:         tr,
		Watchdog:      wcfg,
	}, sssp.NewGalois(uint64(source), 0))
	if err != nil {
		// A host dying mid-run surfaces as a typed *comm.PeerError naming
		// the dead rank (the cluster fails loudly instead of hanging).
		var pe *comm.PeerError
		if errors.As(err, &pe) {
			log.Fatalf("cluster failed: host %d is dead: %v", pe.Host, err)
		}
		log.Fatal(err)
	}

	trace.Arm(nil) // converged: endpoint teardown below is not a crash

	want := ref.SSSP(csr, source)
	for i, w := range want {
		if float64(w) != res.Values[i] {
			log.Fatalf("node %d: tcp run got %v, dijkstra got %d", i, res.Values[i], w)
		}
	}
	var wire uint64
	for _, ep := range endpoints {
		wire += ep.Stats().BytesSent
	}
	writeTrace(tr, traceOut, "")
	fmt.Printf("sssp over TCP: %d hosts on localhost, %v, %d rounds\n", hosts, res.Time, res.Rounds)
	fmt.Printf("field-sync payload: %d bytes; total wire traffic incl. barriers: %d bytes\n",
		res.TotalCommBytes, wire)
	fmt.Println("results verified identical to sequential Dijkstra ✓")
}

func writeTrace(tr *trace.Trace, path, prefix string) {
	if tr == nil || path == "" {
		return
	}
	if _, err := tr.WriteFile(path); err != nil {
		log.Fatal(prefix, err)
	}
	log.Printf("%swrote trace to %s", prefix, path)
}
