// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) at laptop scale. Each experiment
// has a function here (Table1..Table5, Figure8..Figure10) that runs the
// sweep and prints paper-style rows; cmd/gluon-bench is the CLI and
// bench_test.go exposes each as a testing.B benchmark.
//
// See DESIGN.md §5 for the experiment index and §2 for the workload
// substitutions (scaled-down synthetic graphs standing in for the paper's
// web crawls).
package bench

import (
	"fmt"
	"sync"
	"time"

	"gluon/internal/comm"
	"gluon/internal/generate"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
	"gluon/internal/trace"
)

// Params sizes the experiment sweeps. The zero value is not valid; use
// DefaultParams (moderate, minutes for the full suite) or TestParams
// (small, for CI).
type Params struct {
	// Scale: graphs have 2^Scale nodes.
	Scale uint
	// EdgeFactor: average out-degree.
	EdgeFactor uint
	// Hosts are the host counts swept in scaling experiments.
	Hosts []int
	// Devices are the device counts for D-IrGL experiments.
	Devices []int
	// Workers is the per-host worker count (0 = GOMAXPROCS).
	Workers int
	// PRTolerance and PRMaxIters configure pagerank runs.
	PRTolerance float64
	PRMaxIters  int
	// Seed drives graph generation.
	Seed uint64
	// Net adds simulated link costs to timing experiments. Volumes are
	// unaffected. DESIGN.md §2 explains the calibration: the graphs here
	// are ~4 orders of magnitude smaller than the paper's, so the link
	// bandwidth is scaled down to keep the communication/computation ratio
	// in the paper's network-bound regime.
	Net comm.NetModel
	// Trace, when non-nil, records every Gluon-based run of the sweep into
	// one tracing session (gemini runs are not instrumented).
	Trace *trace.Trace
}

// DefaultParams is the standard configuration for cmd/gluon-bench: scaled
// graphs plus a scaled link model (100 MB/s, 50 µs) so communication
// dominates the way it does on the paper's clusters.
func DefaultParams() Params {
	return Params{
		Scale:       16,
		EdgeFactor:  16,
		Hosts:       []int{1, 2, 4, 8},
		Devices:     []int{1, 2, 4, 8},
		Workers:     2,
		PRTolerance: 1e-6,
		PRMaxIters:  50,
		Seed:        2018,
		Net:         comm.NetModel{Latency: 50 * time.Microsecond, Bandwidth: 50e6},
	}
}

// TestParams is a fast configuration for unit tests.
func TestParams() Params {
	return Params{
		Scale:       9,
		EdgeFactor:  8,
		Hosts:       []int{1, 2, 4},
		Devices:     []int{1, 2, 4},
		Workers:     2,
		PRTolerance: 1e-6,
		PRMaxIters:  30,
		Seed:        2018,
	}
}

// Workload is a prepared input graph with the artifacts the experiments
// need: the raw edge list (for partitioning), the assembled CSR (for
// properties and single-host references), and the symmetrized variant cc
// uses.
type Workload struct {
	Name     string
	Kind     string
	NumNodes uint64
	Weighted bool

	Edges []graph.Edge
	CSR   *graph.CSR

	// Source is the max-out-degree node, the paper's bfs/sssp source.
	Source uint32

	symOnce  sync.Once
	symEdges []graph.Edge
	symCSR   *graph.CSR

	poptOnce sync.Once
	popt     partition.Options
}

// workloadKinds are the graph families standing in for the paper's inputs
// (Table 1): rmat and kron as in the paper; twitterlike and webcrawl as
// scaled stand-ins for twitter40 and clueweb12/wdc12.
var workloadKinds = []string{"rmat", "kron", "twitterlike", "webcrawl"}

// NewWorkload generates one workload.
func NewWorkload(kind string, p Params, weighted bool) (*Workload, error) {
	cfg := generate.Config{
		Kind:       kind,
		Scale:      p.Scale,
		EdgeFactor: p.EdgeFactor,
		Seed:       p.Seed,
		Weighted:   weighted,
		MaxWeight:  100,
	}
	edges, err := generate.Edges(cfg)
	if err != nil {
		return nil, err
	}
	csr, err := graph.FromEdges(cfg.NumNodes(), edges, weighted)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name:     fmt.Sprintf("%s%d", kind, p.Scale),
		Kind:     kind,
		NumNodes: cfg.NumNodes(),
		Weighted: weighted,
		Edges:    edges,
		CSR:      csr,
		Source:   csr.MaxOutDegreeNode(),
	}, nil
}

// Symmetrized returns the undirected variant (built once) for cc.
func (w *Workload) Symmetrized() ([]graph.Edge, *graph.CSR) {
	w.symOnce.Do(func() {
		w.symEdges = ref.Symmetrize(w.Edges)
		g, err := graph.FromEdges(w.NumNodes, w.symEdges, false)
		if err != nil {
			panic(fmt.Sprintf("bench: symmetrize %s: %v", w.Name, err))
		}
		w.symCSR = g
	})
	return w.symEdges, w.symCSR
}

// PolicyOptions returns degree-based policy options (built once).
func (w *Workload) PolicyOptions() partition.Options {
	w.poptOnce.Do(func() {
		out := make([]uint32, w.NumNodes)
		for u := uint32(0); u < w.CSR.NumNodes(); u++ {
			out[u] = w.CSR.OutDegree(u)
		}
		w.popt = partition.Options{OutDegrees: out, InDegrees: w.CSR.InDegrees()}
	})
	return w.popt
}

// input returns the edge list a benchmark runs on and its degree-based
// policy options: cc reads the symmetrized graph, the others the raw one.
func (w *Workload) input(benchmark string) ([]graph.Edge, partition.Options) {
	if benchmark != "cc" {
		return w.Edges, w.PolicyOptions()
	}
	edges, sg := w.Symmetrized()
	out := make([]uint32, w.NumNodes)
	for u := uint32(0); u < sg.NumNodes(); u++ {
		out[u] = sg.OutDegree(u)
	}
	return edges, partition.Options{OutDegrees: out, InDegrees: sg.InDegrees()}
}

// partition splits a benchmark's input among hosts under one policy.
func (w *Workload) partition(benchmark string, kind partition.Kind, hosts int) ([]*partition.Partition, error) {
	edges, popt := w.input(benchmark)
	pol, err := partition.NewPolicy(kind, w.NumNodes, hosts, popt)
	if err != nil {
		return nil, err
	}
	return partition.PartitionAll(w.NumNodes, edges, pol)
}
