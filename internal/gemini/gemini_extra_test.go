package gemini_test

import (
	"testing"
	"time"

	"gluon/internal/comm"
	"gluon/internal/gemini"
)

func TestBaselinePartitionExposed(t *testing.T) {
	numNodes, edges, _ := testInput(t, false)
	parts, err := gemini.Partition(numNodes, edges, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("%d partitions", len(parts))
	}
	var total uint64
	for _, p := range parts {
		if p.Policy.Name() != "oec" {
			t.Fatalf("baseline uses %s, must be edge-cut only", p.Policy.Name())
		}
		total += p.Graph.NumEdges()
	}
	if total != uint64(len(edges)) {
		t.Fatalf("edges %d, want %d", total, len(edges))
	}
}

func TestBaselineRunPartitioned(t *testing.T) {
	numNodes, edges, g := testInput(t, false)
	parts, err := gemini.Partition(numNodes, edges, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gemini.RunPartitioned(parts, gemini.BFS, gemini.Config{
		Hosts: 2, Source: uint64(g.MaxOutDegreeNode()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.TotalCommBytes == 0 {
		t.Fatalf("result %+v looks empty", res)
	}
}

func TestBaselineUnknownAlgorithm(t *testing.T) {
	numNodes, edges, _ := testInput(t, false)
	if _, err := gemini.Run(numNodes, edges, "nope", gemini.Config{Hosts: 2}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestBaselineUnderNetModel: the baseline pays modeled link costs like the
// Gluon systems do (the comparison must be apples-to-apples).
func TestBaselineUnderNetModel(t *testing.T) {
	numNodes, edges, g := testInput(t, false)
	run := func(net comm.NetModel) time.Duration {
		res, err := gemini.Run(numNodes, edges, gemini.BFS, gemini.Config{
			Hosts: 3, Source: uint64(g.MaxOutDegreeNode()), Net: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	fast := run(comm.NetModel{})
	slow := run(comm.NetModel{Latency: 2 * time.Millisecond})
	if slow < fast+5*time.Millisecond {
		t.Fatalf("modeled %v not slower than unmodeled %v", slow, fast)
	}
}
