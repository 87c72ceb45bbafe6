// Heterogeneous cluster: the Figure 1 scenario — one host runs the
// level-synchronous Ligra engine, one the asynchronous Galois worklists,
// two the device engine (IrGL-style bulk kernels), all coupled through the
// same Gluon substrate. The program factory picks an engine per host ID;
// Gluon neither knows nor cares which engine produced the field updates it
// synchronizes, and the one relaxation operator the three schedules share
// is label-correcting, so a level-synchronous host next to an asynchronous
// one still converges to the sequential answer.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"gluon"
	"gluon/internal/algorithms/bfs"
	"gluon/internal/dsys"
	coregluon "gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

func main() {
	numNodes, edges, err := gluon.Generate(gluon.GraphConfig{
		Kind: "rmat", Scale: 14, EdgeFactor: 16, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	csr, err := gluon.BuildCSR(numNodes, edges, false)
	if err != nil {
		log.Fatal(err)
	}
	source := uint64(csr.MaxOutDegreeNode())

	// Host 0 is a CPU host running Ligra, host 1 a CPU host running Galois;
	// hosts 2-3 are "GPU hosts" running the IrGL-style device engine. The
	// factory dispatches on the partition's host ID.
	engines := []struct {
		name    string
		factory dsys.ProgramFactory
	}{
		{"ligra (CPU)", bfs.NewLigra(source, 0)},
		{"galois (CPU)", bfs.NewGalois(source, 0)},
		{"irgl (device)", bfs.NewIrGL(source, 0)},
		{"irgl (device)", bfs.NewIrGL(source, 0)},
	}
	mixed := func(p *partition.Partition, g *coregluon.Gluon) (dsys.Program, error) {
		return engines[p.HostID].factory(p, g)
	}

	res, err := gluon.Run(numNodes, edges, gluon.RunConfig{
		Hosts:         len(engines),
		Policy:        gluon.CVC,
		Opt:           gluon.Opt(),
		CollectValues: true,
	}, mixed)
	if err != nil {
		log.Fatal(err)
	}

	// Verify against sequential BFS: heterogeneity must not change results.
	want := ref.BFS(csr, uint32(source))
	for i, w := range want {
		if float64(w) != res.Values[i] {
			log.Fatalf("node %d: heterogeneous run got %v, sequential got %d", i, res.Values[i], w)
		}
	}
	fmt.Printf("heterogeneous bfs on %d nodes: 1 Ligra host + 1 Galois host + 2 IrGL device hosts\n", numNodes)
	fmt.Printf("time=%v rounds=%d comm=%d bytes\n", res.Time, res.Rounds, res.TotalCommBytes)
	fmt.Println("results verified identical to sequential BFS ✓")
	for _, h := range res.Hosts {
		fmt.Printf("  host %d [%s]: compute=%v sync=%v sent=%d bytes\n",
			h.Host, engines[h.Host].name, h.ComputeTime, h.SyncTime, h.Gluon.BytesSent())
	}
}
