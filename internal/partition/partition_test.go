package partition

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"gluon/internal/generate"
	"gluon/internal/graph"
)

func genEdges(t testing.TB, scale uint) (uint64, []graph.Edge, *graph.CSR) {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: scale, EdgeFactor: 8, Seed: 17}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.NumNodes(), edges, g
}

func options(g *graph.CSR, numNodes uint64) Options {
	out := make([]uint32, numNodes)
	for u := uint32(0); u < g.NumNodes(); u++ {
		out[u] = g.OutDegree(u)
	}
	return Options{OutDegrees: out, InDegrees: g.InDegrees()}
}

// TestEveryEdgeAssignedOnce: across all hosts, the partitioned graphs
// contain exactly the input edges (as (srcGID, dstGID) multiset).
func TestEveryEdgeAssignedOnce(t *testing.T) {
	numNodes, edges, g := genEdges(t, 9)
	opt := options(g, numNodes)
	for _, kind := range AllKinds() {
		for _, hosts := range []int{1, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/h%d", kind, hosts), func(t *testing.T) {
				pol, err := NewPolicy(kind, numNodes, hosts, opt)
				if err != nil {
					t.Fatal(err)
				}
				parts, err := PartitionAll(numNodes, edges, pol)
				if err != nil {
					t.Fatal(err)
				}
				want := map[[2]uint64]int{}
				for _, e := range edges {
					want[[2]uint64{e.Src, e.Dst}]++
				}
				got := map[[2]uint64]int{}
				for _, p := range parts {
					for u := uint32(0); u < p.Graph.NumNodes(); u++ {
						for _, v := range p.Graph.Neighbors(u) {
							got[[2]uint64{p.GID(u), p.GID(v)}]++
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("distinct edges: got %d, want %d", len(got), len(want))
				}
				for k, c := range want {
					if got[k] != c {
						t.Fatalf("edge %v: got %d copies, want %d", k, got[k], c)
					}
				}
			})
		}
	}
}

// TestMasterCompleteness: every global node has exactly one master across
// hosts, on the host the policy owns it to.
func TestMasterCompleteness(t *testing.T) {
	numNodes, edges, g := genEdges(t, 9)
	opt := options(g, numNodes)
	for _, kind := range AllKinds() {
		pol, err := NewPolicy(kind, numNodes, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := PartitionAll(numNodes, edges, pol)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, numNodes)
		for _, p := range parts {
			for lid := uint32(0); lid < p.NumMasters; lid++ {
				gid := p.GID(lid)
				seen[gid]++
				if pol.Owner(gid) != p.HostID {
					t.Fatalf("%s: master of %d on host %d, owner is %d",
						kind, gid, p.HostID, pol.Owner(gid))
				}
			}
		}
		for gid, c := range seen {
			if c != 1 {
				t.Fatalf("%s: node %d has %d masters", kind, gid, c)
			}
		}
	}
}

// TestStructuralInvariants verifies the §3.2 properties the communication
// optimizer relies on, per policy.
func TestStructuralInvariants(t *testing.T) {
	numNodes, edges, g := genEdges(t, 9)
	opt := options(g, numNodes)
	const hosts = 6
	for _, kind := range AllKinds() {
		pol, err := NewPolicy(kind, numNodes, hosts, opt)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := PartitionAll(numNodes, edges, pol)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			for lid := p.NumMasters; lid < p.NumProxies(); lid++ {
				hasOut := p.HasOut.Test(lid)
				hasIn := p.HasIn.Test(lid)
				switch kind {
				case OEC:
					// Mirrors hold only incoming edges.
					if hasOut {
						t.Fatalf("oec: mirror %d on host %d has outgoing edges", p.GID(lid), p.HostID)
					}
				case IEC:
					if hasIn {
						t.Fatalf("iec: mirror %d on host %d has incoming edges", p.GID(lid), p.HostID)
					}
				case CVC:
					// Mirrors have incoming or outgoing edges, not both.
					if hasIn && hasOut {
						t.Fatalf("cvc: mirror %d on host %d has both edge kinds", p.GID(lid), p.HostID)
					}
				}
			}
			// Structural flags must reflect the actual local graph.
			in := p.Graph.InDegrees()
			for lid := uint32(0); lid < p.NumProxies(); lid++ {
				if p.HasOut.Test(lid) != (p.Graph.OutDegree(lid) > 0) {
					t.Fatalf("%s: HasOut flag wrong for %d", kind, lid)
				}
				if p.HasIn.Test(lid) != (in[lid] > 0) {
					t.Fatalf("%s: HasIn flag wrong for %d", kind, lid)
				}
			}
		}
	}
}

// checkTranslation: LID and GID are inverse on every proxy, and LID misses
// every global ID without a proxy here, in or beyond the graph.
func checkTranslation(t testing.TB, p *Partition) {
	t.Helper()
	present := make(map[uint64]uint32, len(p.GIDs))
	for lid := uint32(0); lid < p.NumProxies(); lid++ {
		back, ok := p.LID(p.GID(lid))
		if !ok || back != lid {
			t.Fatalf("host %d: LID(GID(%d)) = %d, %v", p.HostID, lid, back, ok)
		}
		if p.IsMaster(lid) != (lid < p.NumMasters) {
			t.Fatalf("host %d: IsMaster(%d) inconsistent", p.HostID, lid)
		}
		present[p.GID(lid)] = lid
	}
	for gid := uint64(0); gid < p.GlobalNodes+70; gid++ {
		if _, has := present[gid]; has {
			continue
		}
		if lid, ok := p.LID(gid); ok {
			t.Fatalf("host %d: LID(%d) = %d for a GID with no proxy", p.HostID, gid, lid)
		}
	}
	for _, gid := range []uint64{1 << 32, 1<<63 + 5, ^uint64(0)} {
		if lid, ok := p.LID(gid); ok {
			t.Fatalf("host %d: LID(%d) = %d beyond the graph", p.HostID, gid, lid)
		}
	}
}

// TestLocalIDLayout: masters occupy [0, NumMasters) and LID/GID are
// inverse bijections under every policy, including hosts with an empty
// owned range or no mirrors.
func TestLocalIDLayout(t *testing.T) {
	numNodes, edges, g := genEdges(t, 8)
	opt := options(g, numNodes)
	for _, kind := range AllKinds() {
		for _, hosts := range []int{1, 4, 7} {
			pol, err := NewPolicy(kind, numNodes, hosts, opt)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := PartitionAll(numNodes, edges, pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range parts {
				checkTranslation(t, p)
			}
		}
	}
	// A star under degree-balanced OEC: host 0 owns only the hub, later
	// hosts own empty ranges.
	star := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 5}}
	pol, err := NewPolicy(OEC, 6, 3, Options{OutDegrees: []uint32{4, 0, 0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartitionAll(6, star, pol)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		checkTranslation(t, p)
	}
}

// FuzzLID: for arbitrary edge lists, policies and probes, LID agrees with a
// linear scan of GIDs.
func FuzzLID(f *testing.F) {
	f.Add(uint64(7), uint8(0), uint8(3), uint64(12))
	f.Add(uint64(1), uint8(2), uint8(4), uint64(0))
	f.Add(uint64(99), uint8(3), uint8(8), uint64(1<<40))
	f.Fuzz(func(t *testing.T, seed uint64, kind, hosts uint8, probe uint64) {
		cfg := generate.Config{Kind: "random", Scale: 6, EdgeFactor: 2, Seed: seed}
		edges, err := generate.Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]uint32, cfg.NumNodes())
		for _, e := range edges {
			in[e.Dst]++
		}
		pol, err := NewPolicy(AllKinds()[int(kind)%4], cfg.NumNodes(), int(hosts)%8+1, Options{InDegrees: in})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := PartitionAll(cfg.NumNodes(), edges, pol)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			want, found := uint32(0), false
			for lid, gid := range p.GIDs {
				if gid == probe%(2*cfg.NumNodes()) {
					want, found = uint32(lid), true
				}
			}
			got, ok := p.LID(probe % (2 * cfg.NumNodes()))
			if ok != found || (ok && got != want) {
				t.Fatalf("host %d: LID(%d) = %d,%v; scan says %d,%v", p.HostID, probe, got, ok, want, found)
			}
			if _, ok := p.LID(probe | 1<<50); ok {
				t.Fatalf("host %d: LID hit beyond the graph", p.HostID)
			}
		}
	})
}

// TestEdgeRangeError: an endpoint outside [0, numNodes) is a typed error
// from PartitionAll — not a panic in a worker goroutine (source) or a
// mirror owned by a host that does not exist (destination).
func TestEdgeRangeError(t *testing.T) {
	pol, err := NewPolicy(OEC, 8, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []graph.Edge{{Src: 9, Dst: 1}, {Src: 1, Dst: 9}} {
		edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 6, Dst: 2}, bad, {Src: 11, Dst: 11}}
		want := EdgeRangeError{Index: 2, Src: bad.Src, Dst: bad.Dst, NumNodes: 8}

		_, err := PartitionAll(8, edges, pol)
		var rangeErr *EdgeRangeError
		if !errors.As(err, &rangeErr) || *rangeErr != want {
			t.Fatalf("PartitionAll(%v): error %v, want %v", bad, err, &want)
		}
	}
}

// TestMirrorRangeSorted: each owner's mirror range holds ascending GIDs of
// that owner — the memoization order — and the ranges cover all mirrors.
func TestMirrorRangeSorted(t *testing.T) {
	numNodes, edges, g := genEdges(t, 8)
	opt := options(g, numNodes)
	pol, err := NewPolicy(HVC, numNodes, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		total := 0
		for h := 0; h < p.NumHosts; h++ {
			lo, hi := p.MirrorRange(h)
			gids := p.GIDs[lo:hi]
			for i, gid := range gids {
				if pol.Owner(gid) != h {
					t.Fatalf("mirror %d listed under host %d, owner %d", gid, h, pol.Owner(gid))
				}
				if i > 0 && gids[i-1] >= gid {
					t.Fatalf("mirrors for host %d not ascending", h)
				}
			}
			total += len(gids)
		}
		if total != int(p.NumProxies()-p.NumMasters) {
			t.Fatalf("mirror cover: %d of %d", total, p.NumProxies()-p.NumMasters)
		}
	}
}

func TestComputeStats(t *testing.T) {
	numNodes, edges, g := genEdges(t, 9)
	opt := options(g, numNodes)
	pol, err := NewPolicy(OEC, numNodes, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(parts)
	if s.GlobalEdges != uint64(len(edges)) {
		t.Fatalf("global edges %d, want %d", s.GlobalEdges, len(edges))
	}
	if s.ReplicationFactor < 1 {
		t.Fatalf("replication factor %f < 1", s.ReplicationFactor)
	}
	if s.EdgeImbalance < 1 {
		t.Fatalf("imbalance %f < 1", s.EdgeImbalance)
	}
	if ComputeStats(nil).NumHosts != 0 {
		t.Fatal("empty stats")
	}
}

// TestDegreeBalancedChunks: edge-balanced boundaries give each host a
// total degree within a reasonable factor of the mean.
func TestDegreeBalancedChunks(t *testing.T) {
	numNodes, _, g := genEdges(t, 11)
	out := make([]uint32, numNodes)
	var total uint64
	for u := uint32(0); u < g.NumNodes(); u++ {
		out[u] = g.OutDegree(u)
		total += uint64(out[u])
	}
	const hosts = 8
	owner := newDegreeBalancedOwner(out, hosts)
	loads := make([]uint64, hosts)
	for u := uint64(0); u < numNodes; u++ {
		loads[owner.owner(u)] += uint64(out[u])
	}
	mean := float64(total) / hosts
	for h, l := range loads {
		if float64(l) > 3*mean {
			t.Errorf("host %d load %d vs mean %.0f", h, l, mean)
		}
	}
}

// TestQuickBlockOwnerCoversAll: the chunked owner maps every ID to a valid
// host and boundaries are monotone.
func TestQuickBlockOwnerCoversAll(t *testing.T) {
	f := func(nRaw uint16, hostsRaw uint8) bool {
		n := uint64(nRaw)%1000 + 1
		hosts := int(hostsRaw)%16 + 1
		o := newNodeBalancedOwner(n, hosts)
		prev := 0
		for gid := uint64(0); gid < n; gid++ {
			h := o.owner(gid)
			if h < 0 || h >= hosts || h < prev {
				return false
			}
			prev = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4},
		9: {3, 3}, 12: {3, 4}, 16: {4, 4}, 7: {1, 7},
	}
	for hosts, want := range cases {
		r, c := gridShape(hosts)
		if r != want[0] || c != want[1] {
			t.Errorf("gridShape(%d) = (%d,%d), want %v", hosts, r, c, want)
		}
		if r*c != hosts {
			t.Errorf("gridShape(%d) does not multiply back", hosts)
		}
	}
}

func TestPolicyErrors(t *testing.T) {
	if _, err := NewPolicy(OEC, 10, 0, Options{}); err == nil {
		t.Fatal("0 hosts accepted")
	}
	if _, err := NewPolicy(HVC, 10, 2, Options{}); err == nil {
		t.Fatal("HVC without in-degrees accepted")
	}
	if _, err := NewPolicy("bogus", 10, 2, Options{}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestSingleHostPartitionIsWholeGraph(t *testing.T) {
	numNodes, edges, _ := genEdges(t, 8)
	pol, err := NewPolicy(OEC, numNodes, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	p := parts[0]
	if uint64(p.NumMasters) != numNodes || p.NumProxies() != p.NumMasters {
		t.Fatalf("single host: %d masters, %d proxies", p.NumMasters, p.NumProxies())
	}
	if p.Graph.NumEdges() != uint64(len(edges)) {
		t.Fatalf("single host edges %d", p.Graph.NumEdges())
	}
}

func BenchmarkPartitionCVC8(b *testing.B) {
	numNodes, edges, g := genEdges(b, 14)
	opt := options(g, numNodes)
	pol, err := NewPolicy(CVC, numNodes, 8, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionAll(numNodes, edges, pol); err != nil {
			b.Fatal(err)
		}
	}
}
