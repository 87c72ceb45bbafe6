package partition

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/generate"
	"gluon/internal/graph"
)

// The oracle is the builder this package used before construction became
// count→scan→scatter: append-grown per-host buckets, a hash set to discover
// mirrors, a hash map to translate. It is slow and obviously right, and the
// differential test below holds the production builder to it bit for bit.

func oraclePartitionAll(numNodes uint64, edges []graph.Edge, pol Policy) []*Partition {
	buckets := make([][]graph.Edge, pol.NumHosts())
	weighted := false
	for _, e := range edges {
		h := pol.EdgeHost(e.Src, e.Dst)
		buckets[h] = append(buckets[h], e)
		weighted = weighted || e.Weight != 0
	}
	parts := make([]*Partition, pol.NumHosts())
	for h := range parts {
		parts[h] = oracleBuildLocal(h, numNodes, buckets[h], pol, weighted)
	}
	return parts
}

func oracleBuildLocal(h int, numNodes uint64, edges []graph.Edge, pol Policy, weighted bool) *Partition {
	var masters []uint64
	for g := uint64(0); g < numNodes; g++ {
		if pol.Owner(g) == h {
			masters = append(masters, g)
		}
	}
	mirrorSet := make(map[uint64]struct{})
	for _, e := range edges {
		if pol.Owner(e.Src) != h {
			mirrorSet[e.Src] = struct{}{}
		}
		if pol.Owner(e.Dst) != h {
			mirrorSet[e.Dst] = struct{}{}
		}
	}
	mirrors := make([]uint64, 0, len(mirrorSet))
	for g := range mirrorSet {
		mirrors = append(mirrors, g)
	}
	sort.Slice(mirrors, func(a, b int) bool { return mirrors[a] < mirrors[b] })

	gids := append(append(make([]uint64, 0, len(masters)+len(mirrors)), masters...), mirrors...)
	lidMap := make(map[uint64]uint32, len(gids))
	for lid, g := range gids {
		lidMap[g] = uint32(lid)
	}
	local := make([]graph.LocalEdge, len(edges))
	hasOut := bitset.New(uint32(len(gids)))
	hasIn := bitset.New(uint32(len(gids)))
	for i, e := range edges {
		s, d := lidMap[e.Src], lidMap[e.Dst]
		local[i] = graph.LocalEdge{Src: s, Dst: d, Weight: e.Weight}
		hasOut.SetUnsync(s)
		hasIn.SetUnsync(d)
	}
	return &Partition{
		HostID:      h,
		NumHosts:    pol.NumHosts(),
		Policy:      pol,
		Graph:       oracleCSR(uint32(len(gids)), local, weighted),
		GIDs:        gids,
		NumMasters:  uint32(len(masters)),
		HasOut:      hasOut,
		HasIn:       hasIn,
		GlobalNodes: numNodes,
	}
}

// oracleCSR is a stable sort by source, independent of graph.Build.
func oracleCSR(numNodes uint32, edges []graph.LocalEdge, weighted bool) *graph.CSR {
	sorted := append([]graph.LocalEdge(nil), edges...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Src < sorted[b].Src })
	g := &graph.CSR{Offsets: make([]uint64, numNodes+1), Dst: make([]uint32, len(edges)), HasWeights: weighted}
	if weighted {
		g.Weights = make([]uint32, len(edges))
	}
	for i, e := range sorted {
		g.Offsets[e.Src+1] = uint64(i + 1)
		g.Dst[i] = e.Dst
		if weighted {
			g.Weights[i] = e.Weight
		}
	}
	for u := uint32(0); u < numNodes; u++ {
		if g.Offsets[u+1] < g.Offsets[u] {
			g.Offsets[u+1] = g.Offsets[u]
		}
	}
	return g
}

// requireSamePartition compares everything the issue pins: graph arrays,
// GIDs, master count and structural flags.
func requireSamePartition(t *testing.T, got, want *Partition) {
	t.Helper()
	if got.HostID != want.HostID || got.NumHosts != want.NumHosts || got.GlobalNodes != want.GlobalNodes {
		t.Fatalf("host %d: header (%d,%d,%d), want (%d,%d,%d)", want.HostID,
			got.HostID, got.NumHosts, got.GlobalNodes, want.HostID, want.NumHosts, want.GlobalNodes)
	}
	if got.NumMasters != want.NumMasters {
		t.Fatalf("host %d: %d masters, want %d", want.HostID, got.NumMasters, want.NumMasters)
	}
	if !reflect.DeepEqual(got.GIDs, want.GIDs) {
		t.Fatalf("host %d: GIDs differ:\n got %v\nwant %v", want.HostID, got.GIDs, want.GIDs)
	}
	if !reflect.DeepEqual(got.Graph, want.Graph) {
		t.Fatalf("host %d: local graph differs:\n got %+v\nwant %+v", want.HostID, got.Graph, want.Graph)
	}
	if !reflect.DeepEqual(got.HasOut, want.HasOut) || !reflect.DeepEqual(got.HasIn, want.HasIn) {
		t.Fatalf("host %d: structural flags differ", want.HostID)
	}
}

// oracleInput is one differential input graph.
type oracleInput struct {
	numNodes uint64
	edges    []graph.Edge
}

// oracleGraphs are the differential inputs. Beyond the generated shapes,
// "awkward" packs self-loops, duplicate edges and isolated nodes into one
// small graph whose last quarter of the ID space has no edges at all, so
// the hosts owning it receive none.
func oracleGraphs(t *testing.T) map[string]oracleInput {
	t.Helper()
	out := map[string]oracleInput{
		"awkward": {64, []graph.Edge{{Src: 3, Dst: 3}, {Src: 0, Dst: 40}, {Src: 0, Dst: 40}, {Src: 40, Dst: 0},
			{Src: 17, Dst: 5}, {Src: 5, Dst: 17}, {Src: 47, Dst: 47}}},
		"edgeless": {10, nil},
	}
	for _, kind := range []string{"rmat", "grid", "star", "chain", "random"} {
		// 5120 rmat/random edges exceed the 1024-edge worker grain, so
		// GOMAXPROCS 4 really routes in parallel.
		cfg := generate.Config{Kind: kind, Scale: 9, EdgeFactor: 10, Seed: 5}
		edges, err := generate.Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[kind] = oracleInput{cfg.NumNodes(), edges}
	}
	return out
}

// TestBuilderMatchesOracle: the map-free builder is DeepEqual to the
// map-based oracle for every policy × host count × graph shape ×
// weightedness, serial and parallel. Degree-balanced chunking over the
// star and awkward graphs yields hosts with an empty owned range; the
// edge-cuts over them yield hosts with no edges.
func TestBuilderMatchesOracle(t *testing.T) {
	var sawEmptyRange, sawNoEdges bool
	for name, in := range oracleGraphs(t) {
		for _, weighted := range []bool{false, true} {
			edges := append([]graph.Edge(nil), in.edges...)
			if weighted {
				for i := range edges {
					edges[i].Weight = uint32(i%7) + 1
				}
			}
			opt := Options{OutDegrees: make([]uint32, in.numNodes), InDegrees: make([]uint32, in.numNodes)}
			for _, e := range edges {
				opt.OutDegrees[e.Src]++
				opt.InDegrees[e.Dst]++
			}
			for _, kind := range AllKinds() {
				for _, hosts := range []int{1, 2, 3, 4, 8} {
					pol, err := NewPolicy(kind, in.numNodes, hosts, opt)
					if err != nil {
						t.Fatal(err)
					}
					want := oraclePartitionAll(in.numNodes, edges, pol)
					for _, procs := range []int{1, 4} {
						t.Run(fmt.Sprintf("%s/w=%v/%s/h%d/p%d", name, weighted, kind, hosts, procs), func(t *testing.T) {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
							got, err := PartitionAll(in.numNodes, edges, pol)
							if err != nil {
								t.Fatal(err)
							}
							for h := range want {
								requireSamePartition(t, got[h], want[h])
								if err := got[h].Graph.Validate(); err != nil {
									t.Fatalf("host %d: %v", h, err)
								}
							}
						})
					}
					for h, p := range want {
						b := pol.Bounds()
						sawEmptyRange = sawEmptyRange || b[h] == b[h+1]
						sawNoEdges = sawNoEdges || p.Graph.NumEdges() == 0
					}
				}
			}
		}
	}
	if !sawEmptyRange || !sawNoEdges {
		t.Fatalf("matrix missed a corner: empty owned range seen=%v, edgeless host seen=%v", sawEmptyRange, sawNoEdges)
	}
}
