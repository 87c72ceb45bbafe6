package relax_test

// The label family's one table: every algorithm × engine × policy × host
// count on every input, against the sequential references and the O(|E|)
// property oracles. The system × optimization-level matrix lives in
// internal/dsys; mixed-engine runs in its heterogeneous test.

import (
	"fmt"
	"testing"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/algorithms/cc"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/dsys"
	"gluon/internal/gemini"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
	"gluon/internal/validate"
)

// input is one graph of the table; sym is its undirected variant for cc.
type input struct {
	name        string
	n           uint64
	edges, sym  []graph.Edge
	g, wg, symG *graph.CSR // unweighted, weighted, symmetrized
	source      uint32
}

func newInput(t *testing.T, name string, n uint64, edges []graph.Edge, source uint32) input {
	t.Helper()
	in := input{name: name, n: n, edges: edges, sym: ref.Symmetrize(edges), source: source}
	var err error
	if in.g, err = graph.FromEdges(n, edges, false); err != nil {
		t.Fatal(err)
	}
	if in.wg, err = graph.FromEdges(n, edges, true); err != nil {
		t.Fatal(err)
	}
	if in.symG, err = graph.FromEdges(n, in.sym, false); err != nil {
		t.Fatal(err)
	}
	return in
}

func inputs(t *testing.T) []input {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 101, Weighted: true}
	rmat, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := graph.FromEdges(cfg.NumNodes(), rmat, false)
	if err != nil {
		t.Fatal(err)
	}

	// Path sums past uint32: 0→1→2→3 costs 3·(2^31), which saturates at
	// Infinity-1 from node 2 on; the detour 0→4→3 keeps node 3 finite, so
	// a saturated offer has to lose to a real one. Nodes 6 and 7 hang off
	// a saturated label and must stay saturated, not wrap.
	const big = 1 << 31
	overflow := []graph.Edge{
		{Src: 0, Dst: 1, Weight: big}, {Src: 1, Dst: 2, Weight: big}, {Src: 2, Dst: 3, Weight: big},
		{Src: 0, Dst: 4, Weight: 7}, {Src: 4, Dst: 3, Weight: big},
		{Src: 2, Dst: 6, Weight: 5}, {Src: 6, Dst: 7, Weight: big}, {Src: 3, Dst: 5, Weight: 1},
	}

	// Two components: a ring 0..7 with chords, and a ring 8..11 the source
	// cannot reach (and whose cc label is 8, not 0); node 12 is isolated.
	var islands []graph.Edge
	for u := uint64(0); u < 8; u++ {
		islands = append(islands, graph.Edge{Src: u, Dst: (u + 1) % 8, Weight: uint32(u) + 1})
	}
	islands = append(islands, graph.Edge{Src: 0, Dst: 5, Weight: 40}, graph.Edge{Src: 2, Dst: 6, Weight: 2})
	for u := uint64(8); u < 12; u++ {
		islands = append(islands, graph.Edge{Src: u, Dst: 8 + (u+1)%4, Weight: 3})
	}

	return []input{
		newInput(t, "rmat", cfg.NumNodes(), rmat, rg.MaxOutDegreeNode()),
		newInput(t, "overflow", 8, overflow, 0),
		newInput(t, "islands", 13, islands, 0),
	}
}

// algorithm is one row family: how to build its programs on each engine,
// which variant of the input it runs on, and its two oracles.
type algorithm struct {
	name    string
	engines map[string]func(in input) dsys.ProgramFactory
	edges   func(in input) []graph.Edge
	want    func(in input) []uint32
	check   func(in input, got []uint32) error
}

func algorithms() []algorithm {
	src := func(in input) uint64 { return uint64(in.source) }
	directed := func(in input) []graph.Edge { return in.edges }
	return []algorithm{
		{
			name: "bfs",
			engines: map[string]func(in input) dsys.ProgramFactory{
				"ligra":  func(in input) dsys.ProgramFactory { return bfs.NewLigra(src(in), 2) },
				"galois": func(in input) dsys.ProgramFactory { return bfs.NewGalois(src(in), 2) },
				"irgl":   func(in input) dsys.ProgramFactory { return bfs.NewIrGL(src(in), 2) },
			},
			edges: directed,
			want:  func(in input) []uint32 { return ref.BFS(in.g, in.source) },
			check: func(in input, got []uint32) error { return validate.BFS(in.g, in.source, got) },
		},
		{
			name: "sssp",
			engines: map[string]func(in input) dsys.ProgramFactory{
				"ligra":  func(in input) dsys.ProgramFactory { return sssp.NewLigra(src(in), 2) },
				"galois": func(in input) dsys.ProgramFactory { return sssp.NewGalois(src(in), 2) },
				"irgl":   func(in input) dsys.ProgramFactory { return sssp.NewIrGL(src(in), 2) },
			},
			edges: directed,
			want:  func(in input) []uint32 { return ref.SSSP(in.wg, in.source) },
			check: func(in input, got []uint32) error { return validate.SSSP(in.wg, in.source, got) },
		},
		{
			name: "cc",
			engines: map[string]func(in input) dsys.ProgramFactory{
				"ligra":  func(input) dsys.ProgramFactory { return cc.NewLigra(2) },
				"galois": func(input) dsys.ProgramFactory { return cc.NewGalois(2) },
				"irgl":   func(input) dsys.ProgramFactory { return cc.NewIrGL(2) },
			},
			edges: func(in input) []graph.Edge { return in.sym },
			want:  func(in input) []uint32 { return ref.CC(in.symG) },
			check: func(in input, got []uint32) error { return validate.CC(in.symG, got) },
		},
	}
}

// mustMatch compares a run's values with the reference exactly, then with
// the property oracle.
func mustMatch(t *testing.T, in input, a algorithm, values []float64) {
	t.Helper()
	want := a.want(in)
	got := make([]uint32, len(values))
	for u, v := range values {
		got[u] = uint32(v)
		if v != float64(want[u]) {
			t.Fatalf("node %d = %v, want %d", u, v, want[u])
		}
	}
	if err := a.check(in, got); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyMatchesReferences(t *testing.T) {
	for _, in := range inputs(t) {
		for _, a := range algorithms() {
			for engine, mk := range a.engines {
				for _, pol := range partition.AllKinds() {
					for _, hosts := range []int{1, 3, 4} {
						t.Run(fmt.Sprintf("%s/%s/%s/%s/h%d", in.name, a.name, engine, pol, hosts), func(t *testing.T) {
							res, err := dsys.Run(in.n, a.edges(in), dsys.RunConfig{
								Hosts: hosts, Policy: pol, Opt: gluon.Opt(), CollectValues: true,
							}, mk(in))
							if err != nil {
								t.Fatal(err)
							}
							if res.Algorithm != a.name {
								t.Errorf("ran as %q, want %q", res.Algorithm, a.name)
							}
							mustMatch(t, in, a, res.Values)
						})
					}
				}
			}
		}
	}
}

// TestGeminiMatchesReferences: the baseline calls the same operator from
// its own loop and must land on the same answers.
func TestGeminiMatchesReferences(t *testing.T) {
	byName := map[string]algorithm{}
	for _, a := range algorithms() {
		byName[a.name] = a
	}
	for _, in := range inputs(t) {
		for _, alg := range []gemini.Algorithm{gemini.BFS, gemini.SSSP, gemini.CC} {
			a := byName[string(alg)]
			for _, hosts := range []int{1, 3, 4} {
				t.Run(fmt.Sprintf("%s/%s/h%d", in.name, alg, hosts), func(t *testing.T) {
					res, err := gemini.Run(in.n, a.edges(in), alg, gemini.Config{
						Hosts: hosts, Workers: 2, Source: uint64(in.source), CollectValues: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					mustMatch(t, in, a, res.Values)
				})
			}
		}
	}
}
