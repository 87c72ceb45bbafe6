// Package gluon is the public API of this repository: a Go implementation
// of Gluon, the communication-optimizing substrate for distributed
// heterogeneous graph analytics (Dathathri et al., PLDI 2018), together
// with the three distributed systems built on it — D-Ligra, D-Galois, and
// D-IrGL — and the Gemini-style baseline the paper compares against.
//
// # Quick start
//
//	cfg := gluon.GraphConfig{Kind: "rmat", Scale: 16, EdgeFactor: 16, Seed: 1}
//	numNodes, edges, _ := gluon.Generate(cfg)
//	res, _ := gluon.Run(numNodes, edges, gluon.RunConfig{
//		Hosts:  4,
//		Policy: gluon.CVC,
//		Opt:    gluon.Opt(),
//	}, gluon.NewBFS(gluon.DGalois, 0, 0))
//	fmt.Println(res.Time, res.TotalCommBytes)
//
// The deeper layers are available for advanced use: the substrate itself
// (internal/gluon), the partitioner (internal/partition), the engines
// (internal/engine/...), and the transports (internal/comm). This facade
// re-exports the types needed to run the distributed systems end to end.
package gluon

import (
	"fmt"

	"gluon/internal/algorithms/bc"
	"gluon/internal/algorithms/bfs"
	"gluon/internal/algorithms/cc"
	"gluon/internal/algorithms/kcore"
	"gluon/internal/algorithms/pr"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/autotune"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// Edge is a directed edge in global-ID space.
type Edge = graph.Edge

// CSR is the compressed-sparse-row graph representation.
type CSR = graph.CSR

// GraphConfig selects a synthetic input graph (see internal/generate for
// the available kinds: rmat, kron, webcrawl, twitterlike, random, grid,
// chain, star).
type GraphConfig = generate.Config

// Options toggles Gluon's communication optimizations.
type Options = gluon.Options

// Opt returns the fully-optimized configuration (structural invariants +
// temporal invariance, the paper's OSTI).
func Opt() Options { return gluon.Opt() }

// Unopt returns the baseline configuration with both optimizations off.
func Unopt() Options { return gluon.Unopt() }

// PolicyKind names a partitioning strategy.
type PolicyKind = partition.Kind

// The four partitioning strategies of the paper (§3.1).
const (
	OEC = partition.OEC // outgoing edge-cut
	IEC = partition.IEC // incoming edge-cut
	CVC = partition.CVC // Cartesian (2-D) vertex-cut
	HVC = partition.HVC // hybrid vertex-cut (unconstrained)
)

// RunConfig configures a distributed run.
type RunConfig = dsys.RunConfig

// Result reports a distributed run.
type Result = dsys.Result

// ProgramFactory builds one host's program instance.
type ProgramFactory = dsys.ProgramFactory

// System selects which shared-memory engine each host runs.
type System string

// The three Gluon-based systems.
const (
	// DLigra runs the frontier-based, direction-optimizing Ligra engine.
	DLigra System = "d-ligra"
	// DGalois runs the asynchronous worklist Galois engine.
	DGalois System = "d-galois"
	// DIrGL runs the bulk-synchronous device (simulated GPU) engine.
	DIrGL System = "d-irgl"
)

// AllSystems lists the Gluon-based systems.
func AllSystems() []System { return []System{DLigra, DGalois, DIrGL} }

// Generate produces a synthetic graph's edge list and node count.
func Generate(cfg GraphConfig) (uint64, []Edge, error) {
	edges, err := generate.Edges(cfg)
	if err != nil {
		return 0, nil, err
	}
	return cfg.NumNodes(), edges, nil
}

// Run executes a program factory over the in-process cluster.
func Run(numNodes uint64, edges []Edge, cfg RunConfig, factory ProgramFactory) (*Result, error) {
	return dsys.Run(numNodes, edges, cfg, factory)
}

// NewBFS returns the breadth-first-search program for the given system.
// workers is the per-host worker count (0 = GOMAXPROCS).
func NewBFS(sys System, source uint64, workers int) ProgramFactory {
	switch sys {
	case DLigra:
		return bfs.NewLigra(source, workers)
	case DGalois:
		return bfs.NewGalois(source, workers)
	case DIrGL:
		return bfs.NewIrGL(source, workers)
	default:
		return errFactory(fmt.Errorf("gluon: unknown system %q", sys))
	}
}

// NewSSSP returns the single-source shortest-paths program (requires a
// weighted graph).
func NewSSSP(sys System, source uint64, workers int) ProgramFactory {
	switch sys {
	case DLigra:
		return sssp.NewLigra(source, workers)
	case DGalois:
		return sssp.NewGalois(source, workers)
	case DIrGL:
		return sssp.NewIrGL(source, workers)
	default:
		return errFactory(fmt.Errorf("gluon: unknown system %q", sys))
	}
}

// NewCC returns the connected-components program (expects a symmetrized
// graph; see Symmetrize).
func NewCC(sys System, workers int) ProgramFactory {
	switch sys {
	case DLigra:
		return cc.NewLigra(workers)
	case DGalois:
		return cc.NewGalois(workers)
	case DIrGL:
		return cc.NewIrGL(workers)
	default:
		return errFactory(fmt.Errorf("gluon: unknown system %q", sys))
	}
}

// NewPageRank returns the pull-style PageRank program. tol <= 0 uses the
// default tolerance; pair with RunConfig.MaxRounds (the paper caps at 100).
func NewPageRank(sys System, tol float64, workers int) ProgramFactory {
	switch sys {
	case DLigra:
		return pr.NewLigra(tol, workers)
	case DGalois:
		return pr.NewGalois(tol, workers)
	case DIrGL:
		return pr.NewIrGL(tol, workers)
	default:
		return errFactory(fmt.Errorf("gluon: unknown system %q", sys))
	}
}

// NewKCore returns the k-core decomposition program (expects a symmetrized
// graph). A node's final value is 1 if it survives in the k-core.
func NewKCore(sys System, k uint64, workers int) ProgramFactory {
	switch sys {
	case DLigra:
		return kcore.NewLigra(k, workers)
	case DGalois:
		return kcore.NewGalois(k, workers)
	case DIrGL:
		return kcore.NewIrGL(k, workers)
	default:
		return errFactory(fmt.Errorf("gluon: unknown system %q", sys))
	}
}

// NewBC returns the single-source betweenness-centrality program (Brandes
// dependencies). A node's final value is its dependency δ from the source.
func NewBC(source uint64, workers int) ProgramFactory {
	return bc.New(source, workers)
}

// Symmetrize adds a reverse edge for every edge, the preprocessing step
// connected-components workloads use.
func Symmetrize(edges []Edge) []Edge { return ref.Symmetrize(edges) }

// AutotunePolicy probes the program under every partitioning policy for a
// few rounds and returns the best one by communication volume (§3.3's
// auto-tuning). Use the returned policy in a subsequent full Run.
func AutotunePolicy(numNodes uint64, edges []Edge, hosts int, factory ProgramFactory) (PolicyKind, error) {
	kind, _, err := autotune.Pick(numNodes, edges, autotune.Config{
		Hosts:     hosts,
		Opt:       Opt(),
		Criterion: autotune.MinVolume,
	}, factory)
	return kind, err
}

// BuildCSR assembles an edge list into CSR form (for single-host use and
// reference computations).
func BuildCSR(numNodes uint64, edges []Edge, weighted bool) (*CSR, error) {
	return graph.FromEdges(numNodes, edges, weighted)
}

func errFactory(err error) ProgramFactory {
	return func(*partition.Partition, *gluon.Gluon) (dsys.Program, error) { return nil, err }
}
