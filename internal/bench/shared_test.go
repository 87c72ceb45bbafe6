package bench

import (
	"testing"

	"gluon/internal/graph"
	"gluon/internal/ref"
	"gluon/internal/validate"
)

// TestSharedEnginesCorrect: the Table 4 shared-memory baselines compute
// the same answers as the sequential references (they feed a comparison
// table, so silent wrongness would poison it), and pass the O(|E|)
// property oracles.
func TestSharedEnginesCorrect(t *testing.T) {
	p := TestParams()
	wl, err := NewWorkload("rmat", p, true)
	if err != nil {
		t.Fatal(err)
	}
	_, symCSR := wl.Symmetrized()
	for _, c := range []struct {
		bench string
		g     *graph.CSR
		want  []uint32
		check func(got []uint32) error
	}{
		{"bfs", wl.CSR, ref.BFS(wl.CSR, wl.Source), func(got []uint32) error { return validate.BFS(wl.CSR, wl.Source, got) }},
		{"sssp", wl.CSR, ref.SSSP(wl.CSR, wl.Source), func(got []uint32) error { return validate.SSSP(wl.CSR, wl.Source, got) }},
		{"cc", symCSR, ref.CC(symCSR), func(got []uint32) error { return validate.CC(symCSR, got) }},
	} {
		for _, engine := range []string{"ligra", "galois"} {
			got, err := sharedLabels(engine, c.bench, c.g, wl.Source, 2)
			if err != nil {
				t.Fatalf("%s/%s: %v", engine, c.bench, err)
			}
			for u := range c.want {
				if got[u] != c.want[u] {
					t.Fatalf("%s/%s node %d: %d, want %d", engine, c.bench, u, got[u], c.want[u])
				}
			}
			if err := c.check(got); err != nil {
				t.Fatalf("%s/%s: %v", engine, c.bench, err)
			}
		}
	}

	// pr against the reference power iteration.
	wantPR := ref.PageRank(wl.CSR, 0.85, 1e-9, 100)
	gotPR := sharedPR(wl.CSR, 1e-9, 100, 2)
	for u := range wantPR {
		d := gotPR[u] - wantPR[u]
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("pr node %d: %g, want %g", u, gotPR[u], wantPR[u])
		}
	}
}

// TestRunSharedDispatch covers the string-dispatch wrapper.
func TestRunSharedDispatch(t *testing.T) {
	p := TestParams()
	wl, err := NewWorkload("rmat", p, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"ligra", "galois"} {
		for _, b := range Benchmarks {
			if _, err := RunShared(engine, b, wl, p); err != nil {
				t.Fatalf("%s/%s: %v", engine, b, err)
			}
		}
	}
	if _, err := RunShared("bogus", "bfs", wl, p); err == nil {
		t.Fatal("bogus engine accepted")
	}
	if _, err := RunShared("ligra", "bogus", wl, p); err == nil {
		t.Fatal("bogus benchmark accepted")
	}
}
