package dsys_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gluon/internal/algorithms/pr"
	"gluon/internal/dsys"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// heteroInput is one graph of the mixed-engine table. wantBFS, when set,
// pins the bfs answer as a literal next to the computed reference.
type heteroInput struct {
	name     string
	numNodes uint64
	edges    []graph.Edge // weighted; bfs and cc ignore the weights
	source   uint32
	hosts    int
	wantBFS  []uint32
}

// TestHeterogeneousEngines: the Figure 1 scenario — different engines on
// different hosts, coupled by the same substrate, must agree with the
// sequential reference. Gluon is engine-agnostic: only byte payloads cross
// hosts. Every assignment of the three engines to hosts (by HostID mod 3)
// runs under every policy, for each member of the label family.
//
// The six-edge input is the minimal form of a wrong answer mixed-engine bfs
// used to give, independent of any generator. Under IEC equal chunks own
// {0..3} and {4..7}. An asynchronous Galois host 0 relaxes 0→1→2→3 within
// round one and ships the over-estimate l(3)=3; a Ligra host 1 derives
// l(5)=4 from it; the corrected l(3)=2 (via 0→4→3) arrives a round later.
// A level-synchronous bfs that only ever writes unreached vertices drops
// that push and reports node 5 at 4. The operator has to be
// label-correcting whatever the engine.
func TestHeterogeneousEngines(t *testing.T) {
	const inf = fields.InfinityU32
	numNodes, edges, g := testGraph(t, 9, true)
	inputs := []heteroInput{
		{
			name: "six-edge", numNodes: 8, source: 0, hosts: 2,
			edges: []graph.Edge{
				{Src: 0, Dst: 1, Weight: 3}, {Src: 1, Dst: 2, Weight: 3}, {Src: 2, Dst: 3, Weight: 3},
				{Src: 0, Dst: 4, Weight: 1}, {Src: 4, Dst: 3, Weight: 1}, {Src: 3, Dst: 5, Weight: 2},
			},
			wantBFS: []uint32{0, 1, 2, 2, 1, 3, inf, inf},
		},
		{name: "rmat", numNodes: numNodes, edges: edges, source: g.MaxOutDegreeNode(), hosts: 6},
	}
	engines := []string{"d-ligra", "d-galois", "d-irgl"}
	rotations := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

	for _, in := range inputs {
		wg, err := graph.FromEdges(in.numNodes, in.edges, true)
		if err != nil {
			t.Fatal(err)
		}
		sym := ref.Symmetrize(in.edges)
		symG, err := graph.FromEdges(in.numNodes, sym, false)
		if err != nil {
			t.Fatal(err)
		}
		bfsWant := ref.BFS(wg, in.source)
		if in.wantBFS != nil && !reflect.DeepEqual(bfsWant, in.wantBFS) {
			t.Fatalf("%s: reference bfs = %v, want %v", in.name, bfsWant, in.wantBFS)
		}
		algs := []struct {
			name  string
			edges []graph.Edge
			want  []uint32
			on    func(f factories) dsys.ProgramFactory
		}{
			{"bfs", in.edges, bfsWant, func(f factories) dsys.ProgramFactory { return f.bfs(uint64(in.source)) }},
			{"sssp", in.edges, ref.SSSP(wg, in.source), func(f factories) dsys.ProgramFactory { return f.sssp(uint64(in.source)) }},
			{"cc", sym, ref.CC(symG), func(f factories) dsys.ProgramFactory { return f.cc() }},
		}
		for _, alg := range algs {
			for _, rot := range rotations {
				var perHost [3]dsys.ProgramFactory
				for i, e := range rot {
					perHost[i] = alg.on(systems[engines[e]])
				}
				mixed := func(p *partition.Partition, gl *gluon.Gluon) (dsys.Program, error) {
					return perHost[p.HostID%3](p, gl)
				}
				for _, pol := range partition.AllKinds() {
					for optName, opt := range map[string]gluon.Options{"opt": gluon.Opt(), "unopt": {}} {
						name := fmt.Sprintf("%s/%s/%s-%s-%s/%s/%s", in.name, alg.name,
							engines[rot[0]], engines[rot[1]], engines[rot[2]], pol, optName)
						t.Run(name, func(t *testing.T) {
							res, err := dsys.Run(in.numNodes, alg.edges, dsys.RunConfig{
								Hosts: in.hosts, Policy: pol, Opt: opt, CollectValues: true,
							}, mixed)
							if err != nil {
								t.Fatal(err)
							}
							checkU32(t, alg.want, res.Values)
						})
					}
				}
			}
		}
	}
}

// TestHeterogeneousPR: mixed engines also agree on an iterative float
// algorithm (pull pagerank runs synchronously regardless of engine, so
// values match the reference exactly to tolerance).
func TestHeterogeneousPR(t *testing.T) {
	numNodes, edges, g := testGraph(t, 9, false)
	want := ref.PageRank(g, pr.Alpha, 1e-9, 100)

	ligraF := pr.NewLigra(1e-9, 2)
	irglF := pr.NewIrGL(1e-9, 2)
	mixed := func(p *partition.Partition, gl *gluon.Gluon) (dsys.Program, error) {
		if p.HostID%2 == 0 {
			return ligraF(p, gl)
		}
		return irglF(p, gl)
	}
	res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts: 4, Policy: partition.CVC, Opt: gluon.Opt(),
		PolicyOptions: policyOptions(numNodes, g), CollectValues: true, MaxRounds: 100,
	}, mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Abs(res.Values[i]-w) > 1e-6 {
			t.Fatalf("node %d: %g, want %g", i, res.Values[i], w)
		}
	}
}
