// Offline partitioning: real deployments partition once, write each host's
// partition to disk, and each host loads only its own file at startup —
// the workflow behind the paper's Table 2 timings. This example partitions
// a graph, saves the partitions, reloads them (as a separate process
// would), runs distributed sssp over the reloaded partitions, and verifies
// against Dijkstra.
//
//	go run ./examples/offline-partition
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"gluon"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/dsys"
	"gluon/internal/gio"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

const hosts = 4

func main() {
	numNodes, edges, err := gluon.Generate(gluon.GraphConfig{
		Kind: "rmat", Scale: 13, EdgeFactor: 8, Seed: 6, Weighted: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	csr, err := gluon.BuildCSR(numNodes, edges, true)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1 (offline): partition and save, one file per host.
	dir, err := os.MkdirTemp("", "gluon-parts-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts, partition.Degrees(numNodes, edges))
	if err != nil {
		log.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		log.Fatal(err)
	}
	var onDisk int64
	for _, p := range parts {
		path := filepath.Join(dir, fmt.Sprintf("host%02d.glpt", p.HostID))
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := gio.WritePartition(f, p); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		st, _ := os.Stat(path)
		onDisk += st.Size()
	}
	fmt.Printf("partitioned %d nodes / %d edges into %d files (%d KB) in %v\n",
		numNodes, len(edges), hosts, onDisk/1024, time.Since(start).Round(time.Millisecond))

	// Phase 2 (startup): each host loads its own partition.
	start = time.Now()
	loaded := make([]*partition.Partition, hosts)
	for h := 0; h < hosts; h++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("host%02d.glpt", h)))
		if err != nil {
			log.Fatal(err)
		}
		loaded[h], err = gio.ReadPartition(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("reloaded %d partitions in %v\n", hosts, time.Since(start).Round(time.Millisecond))

	// Phase 3: run on the reloaded partitions and verify.
	source := csr.MaxOutDegreeNode()
	res, err := dsys.RunPartitioned(loaded, dsys.RunConfig{
		Hosts: hosts, Policy: partition.CVC, Opt: gluon.Opt(), CollectValues: true,
	}, sssp.NewGalois(uint64(source), 0))
	if err != nil {
		log.Fatal(err)
	}
	want := ref.SSSP(csr, source)
	for i, w := range want {
		if float64(w) != res.Values[i] {
			log.Fatalf("node %d: got %v, want %d", i, res.Values[i], w)
		}
	}
	fmt.Printf("sssp over reloaded partitions: %v, %d rounds, %d bytes\n",
		res.Time, res.Rounds, res.TotalCommBytes)
	fmt.Println("results verified identical to sequential Dijkstra ✓")
}
