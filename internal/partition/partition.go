package partition

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"gluon/internal/bitset"
	"gluon/internal/graph"
	"gluon/internal/par"
)

// Partition is one host's view of the partitioned graph: invariant (b) of
// the paper holds — every local edge connects proxies on this host — so a
// shared-memory engine can run on Graph oblivious of other hosts.
type Partition struct {
	HostID   int
	NumHosts int
	Policy   Policy

	// Graph is the local out-CSR over local IDs. Local IDs number masters
	// first ([0, NumMasters)) then mirrors, each group sorted by global ID.
	Graph *graph.CSR
	// GIDs maps local ID → global ID. The masters are exactly the host's
	// owned range Policy.Bounds()[HostID:HostID+2] in order, and the mirrors
	// ascend strictly, so translation back (LID) needs no table.
	GIDs []uint64
	// NumMasters is the count of master proxies; lid < NumMasters ⇔ master.
	NumMasters uint32

	// HasOut / HasIn are the structural flags of §3.2: whether the proxy has
	// any outgoing/incoming local edges. Gluon derives the reduce/broadcast
	// mirror subsets from these.
	HasOut *bitset.Bitset
	HasIn  *bitset.Bitset

	// GlobalNodes is the node count of the original graph.
	GlobalNodes uint64

	inGraphOnce sync.Once
	inGraph     *graph.CSR
}

// LID translates a global ID to this host's local ID: offset arithmetic in
// the owned range for masters, a binary search of the sorted mirror GIDs
// otherwise.
func (p *Partition) LID(gid uint64) (uint32, bool) {
	if p.NumMasters > 0 {
		if d := gid - p.GIDs[0]; d < uint64(p.NumMasters) {
			return uint32(d), true
		}
	}
	i, ok := slices.BinarySearch(p.GIDs[p.NumMasters:], gid)
	return p.NumMasters + uint32(i), ok
}

// GID translates a local ID to the global ID.
func (p *Partition) GID(lid uint32) uint64 { return p.GIDs[lid] }

// IsMaster reports whether lid is a master proxy.
func (p *Partition) IsMaster(lid uint32) bool { return lid < p.NumMasters }

// NumProxies returns the number of proxies (masters + mirrors) on this host.
func (p *Partition) NumProxies() uint32 { return uint32(len(p.GIDs)) }

// InGraph returns the transpose of the local graph, built on first use.
// Pull-style operators iterate over it.
func (p *Partition) InGraph() *graph.CSR {
	p.inGraphOnce.Do(func() { p.inGraph = p.Graph.Transpose() })
	return p.inGraph
}

// MirrorRange returns the local-ID range [lo, hi) of this host's mirrors
// whose master is on owner. Mirrors ascend by GID and owner's nodes are one
// contiguous GID range, so they are contiguous here: two searches find them.
func (p *Partition) MirrorRange(owner int) (lo, hi uint32) {
	b := p.Policy.Bounds()
	mirrors := p.GIDs[p.NumMasters:]
	first, _ := slices.BinarySearch(mirrors, b[owner])
	n, _ := slices.BinarySearch(mirrors[first:], b[owner+1])
	lo = p.NumMasters + uint32(first)
	return lo, lo + uint32(n)
}

// Stats summarizes a set of partitions.
type Stats struct {
	Policy            string
	NumHosts          int
	GlobalNodes       uint64
	GlobalEdges       uint64
	TotalProxies      uint64
	ReplicationFactor float64 // average proxies per node
	MaxEdgeLoad       uint64  // max edges on any host
	MinEdgeLoad       uint64
	EdgeImbalance     float64 // max/mean
	TotalMirrors      uint64
}

// ComputeStats aggregates partition statistics across hosts.
func ComputeStats(parts []*Partition) Stats {
	if len(parts) == 0 {
		return Stats{}
	}
	s := Stats{
		Policy:      parts[0].Policy.Name(),
		NumHosts:    len(parts),
		GlobalNodes: parts[0].GlobalNodes,
		MinEdgeLoad: ^uint64(0),
	}
	for _, p := range parts {
		e := p.Graph.NumEdges()
		s.GlobalEdges += e
		s.TotalProxies += uint64(p.NumProxies())
		s.TotalMirrors += uint64(p.NumProxies() - p.NumMasters)
		if e > s.MaxEdgeLoad {
			s.MaxEdgeLoad = e
		}
		if e < s.MinEdgeLoad {
			s.MinEdgeLoad = e
		}
	}
	if s.GlobalNodes > 0 {
		s.ReplicationFactor = float64(s.TotalProxies) / float64(s.GlobalNodes)
	}
	if mean := float64(s.GlobalEdges) / float64(len(parts)); mean > 0 {
		s.EdgeImbalance = float64(s.MaxEdgeLoad) / mean
	}
	return s
}

// EdgeRangeError reports an edge with an endpoint outside [0, NumNodes).
// Index is the edge's position in the list handed to PartitionAll.
type EdgeRangeError struct {
	Index    int
	Src, Dst uint64
	NumNodes uint64
}

func (e *EdgeRangeError) Error() string {
	return fmt.Sprintf("partition: edge %d (%d→%d) has an endpoint outside the %d-node graph",
		e.Index, e.Src, e.Dst, e.NumNodes)
}

// PartitionAll partitions the edge list for every host of the policy and
// builds all local partitions. numNodes is the global node count (IDs in
// [0, numNodes)); an edge outside that range yields an *EdgeRangeError.
// Every node gets a master proxy on its owner host even if no edge assigned
// there mentions it, so isolated nodes and remote-only nodes still have a
// canonical location.
func PartitionAll(numNodes uint64, edges []graph.Edge, pol Policy) ([]*Partition, error) {
	r, err := routeEdges(numNodes, edges, pol)
	if err != nil {
		return nil, err
	}
	return r.build(edges)
}

// routing is the state between the two passes of partition construction:
// count → prefix scan → scatter, so every edge is written exactly once into
// exactly-sized storage and no hash map or growing slice is involved.
type routing struct {
	numNodes uint64
	pol      Policy
	tables   []proxyTable // by host
	hostOf   []uint16     // hostOf[i] is edge i's host, computed once in pass 1
	workers  int
	// cursor[w*NumHosts+h] is where worker w's first edge for host h lands
	// in the host-major scatter array; start[h] is where host h's edges
	// begin in it. Worker chunks are laid out in worker order, so each
	// host's edges keep the order of the global edge list.
	cursor    []int
	start     []int
	anyWeight bool // some edge carries a non-zero weight, so every host's CSR has weights
}

// routeEdges is pass 1, parallel over chunks of the edge list: validate the
// endpoints, ask the policy for the edge's host once, count edges per
// (worker, host), mark non-owned endpoints as mirrors of that host, and note
// whether any edge carries a weight. The closing prefix scan fixes every
// worker's write cursor for pass 2.
func routeEdges(numNodes uint64, edges []graph.Edge, pol Policy) (*routing, error) {
	nh := pol.NumHosts()
	r := &routing{
		numNodes: numNodes,
		pol:      pol,
		tables:   make([]proxyTable, nh),
		hostOf:   make([]uint16, len(edges)),
		workers:  min(par.DefaultWorkers(), len(edges)/1024+1),
		start:    make([]int, nh+1),
	}
	r.cursor = make([]int, r.workers*nh) // per-(worker, host) counts until the scan
	bounds := pol.Bounds()
	words := int((numNodes + 63) / 64)
	slab := make([]uint64, nh*words)
	for h := range r.tables {
		r.tables[h] = proxyTable{lo: bounds[h], masters: bounds[h+1] - bounds[h], mirror: slab[h*words : (h+1)*words]}
	}
	weights := make([]bool, r.workers)
	hostOf, tables := r.hostOf, r.tables
	err := par.RangeWorkers(len(edges), r.workers, func(w, lo, hi int) error {
		mine := make([]int, nh) // private until the end: no false sharing per edge
		var weighted bool
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.Src >= numNodes || e.Dst >= numNodes {
				return &EdgeRangeError{Index: i, Src: e.Src, Dst: e.Dst, NumNodes: numNodes}
			}
			h := pol.EdgeHost(e.Src, e.Dst)
			hostOf[i] = uint16(h)
			mine[h]++
			t := &tables[h]
			t.mark(e.Src)
			t.mark(e.Dst)
			weighted = weighted || e.Weight != 0
		}
		copy(r.cursor[w*nh:], mine)
		weights[w] = weighted
		return nil
	})
	if err != nil {
		return nil, err
	}
	pos := 0
	for h := 0; h < nh; h++ {
		r.start[h] = pos
		for w := 0; w < r.workers; w++ {
			pos, r.cursor[w*nh+h] = pos+r.cursor[w*nh+h], pos
		}
	}
	r.start[nh] = pos
	for _, w := range weights {
		r.anyWeight = r.anyWeight || w
	}
	return r, nil
}

// build is pass 2 and the per-host finish: number every host's proxies,
// scatter the edges — already translated to local IDs — to their host's
// region of one exactly-sized array, then assemble each host's CSR and
// structural flags. All scratch (host array, proxy tables, local edges) is
// garbage on return. The result is indexed by host.
func (r *routing) build(edges []graph.Edge) ([]*Partition, error) {
	nh := r.pol.NumHosts()
	parts := make([]*Partition, nh)
	for h := range parts {
		parts[h] = &Partition{HostID: h, NumHosts: nh, Policy: r.pol, GlobalNodes: r.numNodes}
	}
	err := par.RangeWorkers(nh, 0, func(_, lo, hi int) error {
		for h := lo; h < hi; h++ {
			gids, err := r.tables[h].seal()
			if err != nil {
				return fmt.Errorf("partition: host %d: %w", h, err)
			}
			parts[h].GIDs = gids
			parts[h].NumMasters = uint32(r.tables[h].masters)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	local := make([]graph.LocalEdge, len(edges))
	hostOf, tables := r.hostOf, r.tables
	_ = par.RangeWorkers(len(edges), r.workers, func(w, lo, hi int) error { // same chunks as pass 1; cannot fail
		cursor := make([]int, nh)
		copy(cursor, r.cursor[w*nh:])
		for i := lo; i < hi; i++ {
			e := edges[i]
			h := hostOf[i]
			t := &tables[h]
			local[cursor[h]] = graph.LocalEdge{Src: t.lid(e.Src), Dst: t.lid(e.Dst), Weight: e.Weight}
			cursor[h]++
		}
		return nil
	})

	par.For(nh, 0, func(h int) {
		p := parts[h]
		p.Graph = graph.Build(p.NumProxies(), local[r.start[h]:r.start[h+1]], r.anyWeight)
		p.HasOut, p.HasIn = structuralFlags(p.Graph)
	})
	return parts, nil
}

// proxyTable discovers one host's proxies while its edges are routed and
// then translates their endpoints. Masters are the owned range
// [lo, lo+masters), so lid = gid − lo; mirrors are marked in a bitset over
// global IDs (GlobalNodes/8 bytes per host, freed with the table) and
// numbered by ascending GID after the masters, so a mirror's lid is masters
// plus its rank in the bitset.
type proxyTable struct {
	lo, masters uint64
	mirror      []uint64 // bit g set ⇔ g is a mirror here
	rank        []uint32 // rank[w] = mirrors in words before w; set by seal
}

// mark records gid as a proxy of this host. Safe for concurrent use: pass 1
// workers share the table. Most endpoints are masters or already marked, so
// the common case is one load.
func (t *proxyTable) mark(gid uint64) {
	if gid-t.lo < t.masters {
		return
	}
	word, bit := &t.mirror[gid/64], uint64(1)<<(gid%64)
	for {
		old := atomic.LoadUint64(word)
		if old&bit != 0 || atomic.CompareAndSwapUint64(word, old, old|bit) {
			return
		}
	}
}

// seal ends discovery: it fixes the local-ID numbering and returns the
// local→global vector (masters in GID order, then mirrors in GID order).
func (t *proxyTable) seal() ([]uint64, error) {
	t.rank = make([]uint32, len(t.mirror))
	var mirrors uint64
	for w, word := range t.mirror {
		t.rank[w] = uint32(mirrors)
		mirrors += uint64(bits.OnesCount64(word))
	}
	if t.masters+mirrors > 1<<32-1 {
		return nil, fmt.Errorf("%d proxies exceed 32-bit local IDs", t.masters+mirrors)
	}
	gids := make([]uint64, t.masters+mirrors)
	for i := range gids[:t.masters] {
		gids[i] = t.lo + uint64(i)
	}
	next := gids[t.masters:]
	for w, word := range t.mirror {
		for ; word != 0; word &= word - 1 {
			next[0] = uint64(w)*64 + uint64(bits.TrailingZeros64(word))
			next = next[1:]
		}
	}
	return gids, nil
}

// lid translates a marked global ID after seal.
func (t *proxyTable) lid(gid uint64) uint32 {
	if d := gid - t.lo; d < t.masters {
		return uint32(d)
	}
	w := gid / 64
	return uint32(t.masters) + t.rank[w] + uint32(bits.OnesCount64(t.mirror[w]&(1<<(gid%64)-1)))
}

// structuralFlags derives the §3.2 per-proxy flags from a local graph.
func structuralFlags(g *graph.CSR) (hasOut, hasIn *bitset.Bitset) {
	n := g.NumNodes()
	hasOut, hasIn = bitset.New(n), bitset.New(n)
	for u := uint32(0); u < n; u++ {
		if g.OutDegree(u) > 0 {
			hasOut.SetUnsync(u)
		}
	}
	for _, d := range g.Dst {
		hasIn.SetUnsync(d)
	}
	return hasOut, hasIn
}

// frozenPolicy is a policy reconstructed from serialized chunk bounds: it
// answers Owner and Bounds queries (all a loaded partition needs) but
// cannot assign new edges.
type frozenPolicy struct {
	base
	name string
}

func (p *frozenPolicy) Name() string { return p.name }

// EdgeHost panics: frozen policies describe an existing partitioning; use
// NewPolicy to partition fresh edges.
func (p *frozenPolicy) EdgeHost(src, dst uint64) int {
	panic("partition: frozen policy cannot assign edges; re-create with NewPolicy")
}

// Frozen reconstructs a Policy from a serialized name and chunk bounds.
func Frozen(name string, bounds []uint64) (Policy, error) {
	if len(bounds) < 2 || len(bounds)-1 > maxHosts {
		return nil, fmt.Errorf("partition: frozen policy needs 2 to %d bounds, got %d", maxHosts+1, len(bounds))
	}
	for h := 1; h < len(bounds); h++ {
		if bounds[h] < bounds[h-1] {
			return nil, fmt.Errorf("partition: frozen policy bounds decrease at host %d", h-1)
		}
	}
	return &frozenPolicy{base: base{own: blockOwner{bounds: bounds}, hosts: len(bounds) - 1}, name: name}, nil
}

// Reassemble rebuilds a Partition from its serialized parts, checking the
// local-ID layout LID relies on — masters are exactly the owned range in
// GID order, mirrors follow strictly ascending — and recomputing the
// structural flags from the local graph.
func Reassemble(hostID int, pol Policy, g *graph.CSR, gids []uint64, numMasters uint32, globalNodes uint64) (*Partition, error) {
	if hostID < 0 || hostID >= pol.NumHosts() {
		return nil, fmt.Errorf("partition: host %d of %d", hostID, pol.NumHosts())
	}
	if uint32(len(gids)) != g.NumNodes() {
		return nil, fmt.Errorf("partition: %d GIDs for %d local nodes", len(gids), g.NumNodes())
	}
	if numMasters > uint32(len(gids)) {
		return nil, fmt.Errorf("partition: %d masters among %d proxies", numMasters, len(gids))
	}
	lo, hi := pol.Bounds()[hostID], pol.Bounds()[hostID+1]
	if uint64(numMasters) != hi-lo {
		return nil, fmt.Errorf("partition: %d masters for owned range [%d, %d)", numMasters, lo, hi)
	}
	for lid, gid := range gids[:numMasters] {
		if gid != lo+uint64(lid) {
			return nil, fmt.Errorf("partition: master %d is GID %d, want %d", lid, gid, lo+uint64(lid))
		}
	}
	for i, gid := range gids[numMasters:] {
		switch {
		case i > 0 && gid <= gids[int(numMasters)+i-1]:
			return nil, fmt.Errorf("partition: unsorted or duplicate mirror GID %d", gid)
		case gid-lo < hi-lo:
			return nil, fmt.Errorf("partition: mirror GID %d is owned by this host", gid)
		case gid >= globalNodes:
			return nil, fmt.Errorf("partition: mirror GID %d outside the %d-node graph", gid, globalNodes)
		}
	}
	hasOut, hasIn := structuralFlags(g)
	return &Partition{
		HostID:      hostID,
		NumHosts:    pol.NumHosts(),
		Policy:      pol,
		Graph:       g,
		GIDs:        gids,
		NumMasters:  numMasters,
		HasOut:      hasOut,
		HasIn:       hasIn,
		GlobalNodes: globalNodes,
	}, nil
}
