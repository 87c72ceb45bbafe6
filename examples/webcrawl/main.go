// Webcrawl analytics: the paper's motivating scenario — ranking and
// clustering a web-crawl-shaped graph whose heavy-tailed degree
// distribution makes the choice of partitioning policy matter. This
// example runs PageRank and connected components over every policy and
// shows how replication factor drives communication volume, the effect the
// paper's §5.2 and Figure 8(b) report.
//
//	go run ./examples/webcrawl
package main

import (
	"fmt"
	"log"

	"gluon"
	"gluon/internal/partition"
)

const hosts = 8

func main() {
	numNodes, edges, err := gluon.Generate(gluon.GraphConfig{
		Kind: "webcrawl", Scale: 14, EdgeFactor: 16, Seed: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web crawl: %d pages, %d hyperlinks, %d hosts\n\n", numNodes, len(edges), hosts)

	// PageRank across the four partitioning policies. The application code
	// is identical; only the runtime policy flag changes — the paper's
	// auto-tuning story (§3.3).
	fmt.Println("PageRank (25 iterations max):")
	fmt.Printf("%-6s %12s %8s %14s %10s\n", "policy", "time", "rounds", "comm volume", "repl")
	for _, pol := range []gluon.PolicyKind{gluon.OEC, gluon.IEC, gluon.CVC, gluon.HVC} {
		repl := replicationFactor(numNodes, edges, pol)
		res, err := gluon.Run(numNodes, edges, gluon.RunConfig{
			Hosts:     hosts,
			Policy:    pol,
			Opt:       gluon.Opt(),
			MaxRounds: 25,
		}, gluon.NewPageRank(gluon.DGalois, 1e-6, 0))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %12v %8d %14d %10.2f\n", pol, res.Time, res.Rounds, res.TotalCommBytes, repl)
	}

	// Connected components on the symmetrized crawl.
	sym := gluon.Symmetrize(edges)
	fmt.Println("\nConnected components (symmetrized):")
	res, err := gluon.Run(numNodes, sym, gluon.RunConfig{
		Hosts:         hosts,
		Policy:        gluon.CVC,
		Opt:           gluon.Opt(),
		CollectValues: true,
	}, gluon.NewCC(gluon.DGalois, 0))
	if err != nil {
		log.Fatal(err)
	}
	comps := map[float64]int{}
	for _, v := range res.Values {
		comps[v]++
	}
	largest := 0
	for _, size := range comps {
		if size > largest {
			largest = size
		}
	}
	fmt.Printf("%d components; giant component has %d/%d pages (%.1f%%)\n",
		len(comps), largest, numNodes, 100*float64(largest)/float64(numNodes))
	fmt.Printf("cc: %v, %d rounds, %d bytes\n", res.Time, res.Rounds, res.TotalCommBytes)
}

// replicationFactor partitions the graph to measure the average number of
// proxies per node under a policy.
func replicationFactor(numNodes uint64, edges []gluon.Edge, kind gluon.PolicyKind) float64 {
	pol, err := partition.NewPolicy(kind, numNodes, hosts, partition.Degrees(numNodes, edges))
	if err != nil {
		log.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		log.Fatal(err)
	}
	return partition.ComputeStats(parts).ReplicationFactor
}
