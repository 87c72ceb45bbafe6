package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/algorithms/pr"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

// prTolerance is the pagerank convergence threshold; the pr workloads stop
// at their round cap long before reaching it, so every run does the same
// number of rounds.
const prTolerance = 1e-6

// workers is the per-host engine worker count. One worker per host keeps a
// host's compute on one core, so hosts (goroutines) and not workers are
// what the box's cores are shared between.
const workers = 1

// spec is one workload: a pinned graph, policy, host count and transport.
type spec struct {
	name string
	why  string // one line, also in BENCHMARK.json

	algo       string // pr, bfs, sssp
	graph      string // generate kind
	scale      uint
	edgeFactor uint
	weighted   bool
	hosts      int
	policy     partition.Kind
	tcp        bool          // real loopback sockets instead of the in-process hub
	net        comm.NetModel // modelled link cost on the hub
	maxRounds  int           // pr round cap
	sources    int           // bfs/sssp: runs per operation, one per seeded source

	quickScale uint // scale under -quick
}

// linkModel is internal/bench's default link: the graphs are ~4 orders of
// magnitude smaller than the paper's, so bandwidth is scaled down to keep
// the communication/computation ratio in the paper's network-bound regime.
var linkModel = comm.NetModel{Latency: 50 * time.Microsecond, Bandwidth: 50e6}

var specs = []spec{
	{
		name: "pr-rmat-cvc-link",
		why:  "communication-bound: dense pagerank updates over a modelled 50 MB/s link, where bytes become seconds (Fig. 10)",
		algo: "pr", graph: "rmat", scale: 18, edgeFactor: 16, hosts: 4, policy: partition.CVC,
		net: linkModel, maxRounds: 20, quickScale: 11,
	},
	{
		name: "pr-dense-oec-inproc",
		why:  "compute-bound: same algorithm, denser graph, no link cost; the by-pass workload for gluon and comm changes",
		algo: "pr", graph: "rmat", scale: 16, edgeFactor: 64, hosts: 2, policy: partition.OEC,
		maxRounds: 60, quickScale: 10,
	},
	{
		name: "bfs-grid-oec-tcp",
		why:  "latency-bound: ~1500 rounds of tiny sparse messages over loopback TCP price per-round fixed costs",
		algo: "bfs", graph: "grid", scale: 20, hosts: 4, policy: partition.OEC, tcp: true,
		sources: 1, quickScale: 10,
	},
	{
		name: "sssp-rmat-hvc-inproc",
		why:  "data-driven sparse updates on a power-law graph, 8 sources back to back, so memoization is paid per source",
		algo: "sssp", graph: "rmat", scale: 18, edgeFactor: 16, weighted: true, hosts: 4, policy: partition.HVC,
		sources: 8, quickScale: 11,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything set-up produces: what dsys.RunWithTransports needs,
// plus what the report says about it.
type inputs struct {
	numNodes uint64
	edges    []graph.Edge
	parts    []*partition.Partition
	sources  []uint64

	generateS, partitionS float64
}

// setup goes from nothing to "dsys.RunWithTransports can be called":
// generate the edge list, build the degree tables, the policy and every
// host's partition, and open (then close) one set of transports. rec, when
// non-nil, gets the setup{generate, partition, connect} spans.
func (s spec) setup(seed uint64, rec *recorder) (*inputs, error) {
	in := &inputs{}
	var setupSpan int64
	phase := func(name string) func(uint64) float64 {
		start := time.Now()
		var id int64
		if rec != nil {
			id = rec.open(-1, name, setupSpan, -1)
		}
		return func(count uint64) float64 {
			if rec != nil {
				rec.close(id, count)
			}
			return time.Since(start).Seconds()
		}
	}
	if rec != nil {
		setupSpan = rec.open(-1, "setup", 0, -1)
		defer rec.close(setupSpan, 0)
	}

	done := phase("generate")
	cfg := generate.Config{Kind: s.graph, Scale: s.scale, EdgeFactor: s.edgeFactor,
		Seed: seed, Weighted: s.weighted, MaxWeight: 100}
	edges, err := generate.Edges(cfg)
	if err != nil {
		return nil, err
	}
	in.numNodes, in.edges = cfg.NumNodes(), edges
	in.generateS = done(uint64(len(edges)))

	done = phase("partition")
	outDeg := make([]uint32, in.numNodes)
	inDeg := make([]uint32, in.numNodes)
	for _, e := range edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}
	pol, err := partition.NewPolicy(s.policy, in.numNodes, s.hosts,
		partition.Options{OutDegrees: outDeg, InDegrees: inDeg})
	if err != nil {
		return nil, err
	}
	if in.parts, err = partition.PartitionAll(in.numNodes, edges, pol); err != nil {
		return nil, err
	}
	in.partitionS = done(uint64(s.hosts))

	done = phase("connect")
	ts, err := s.open()
	if err != nil {
		return nil, err
	}
	closeAll(ts)
	done(0)

	in.sources = s.pickSources(seed, outDeg)
	return in, nil
}

// pickSources draws the bfs/sssp sources from the seed.
//
// On the grid the round count of a bfs is the source's eccentricity, so a
// free choice of source would make run_s depend on the seed by up to 2x.
// The sources are therefore drawn from the cells whose eccentricity is 3/2
// of the side: every seed gets a different source and the same number of
// rounds. On rmat the sources are nodes with at least one out-edge, as
// graph500 draws them.
func (s spec) pickSources(seed uint64, outDeg []uint32) []uint64 {
	if s.sources == 0 {
		return nil
	}
	r := seed*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	next := func(n uint64) uint64 { // splitmix64
		r += 0x9e3779b97f4a7c15
		z := r
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return (z ^ z>>31) % n
	}
	var out []uint64
	if s.graph == "grid" {
		side := uint64(1) << (s.scale / 2)
		ecc := func(v uint64) uint64 { return max(v, side-1-v) }
		want := 3 * (side - 1) / 2
		var ring []uint64
		for y := uint64(0); y < side; y++ {
			for x := uint64(0); x < side; x++ {
				if ecc(x)+ecc(y) == want {
					ring = append(ring, y*side+x)
				}
			}
		}
		for len(out) < s.sources {
			out = append(out, ring[next(uint64(len(ring)))])
		}
		return out
	}
	for len(out) < s.sources {
		if v := next(uint64(len(outDeg))); outDeg[v] > 0 {
			out = append(out, v)
		}
	}
	return out
}

// factory builds the program for one run; source is ignored by pr.
func (s spec) factory(source uint64) dsys.ProgramFactory {
	switch s.algo {
	case "pr":
		return pr.NewGalois(prTolerance, workers) // d-galois, pull
	case "bfs":
		return bfs.NewLigra(source, workers) // d-ligra
	default:
		return sssp.NewIrGL(source, workers) // d-irgl, the simulated device
	}
}

func (s spec) runConfig(collect bool) dsys.RunConfig {
	return dsys.RunConfig{Hosts: s.hosts, Policy: s.policy, Opt: gluon.Opt(),
		CollectValues: collect, MaxRounds: s.maxRounds}
}

// open creates one transport per host: the in-process hub (with the link
// model, if any) or a TCP mesh on loopback.
func (s spec) open() ([]comm.Transport, error) {
	if !s.tcp {
		return comm.NewHubWithModel(s.hosts, s.net).Endpoints(), nil
	}
	// The mesh needs its listen addresses up front. Ask the kernel for free
	// ports, release them, and dial; another process taking one in between
	// fails the dial, hence the retry.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var ts []comm.Transport
		if ts, err = dialMesh(s.hosts); err == nil {
			return ts, nil
		}
	}
	return nil, err
}

func dialMesh(hosts int) ([]comm.Transport, error) {
	addrs := make([]string, hosts)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	ts := make([]comm.Transport, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := comm.DialTCPConfig(i, addrs, comm.DialConfig{Timeout: 5 * time.Second})
			if err != nil {
				errs[i] = err
				return
			}
			ts[i] = ep
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeAll(ts)
			return nil, fmt.Errorf("tcp mesh: %w", err)
		}
	}
	return ts, nil
}

// closeAll closes the transports that were opened; a failed dial leaves nil.
func closeAll(ts []comm.Transport) {
	for _, t := range ts {
		if t != nil {
			t.Close()
		}
	}
}

// hashEdges is the FNV-1a hash of the edge list. generate keys its RNG
// streams by worker index, so the same seed is a different graph on a
// different core count; the hash makes that a changed input, not a speed-up.
func hashEdges(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var buf [20]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(buf[0:], e.Src)
		binary.LittleEndian.PutUint64(buf[8:], e.Dst)
		binary.LittleEndian.PutUint32(buf[16:], e.Weight)
		h.Write(buf[:])
	}
	return h.Sum64()
}
