// Package partition distributes a graph's edges between hosts and builds
// each host's local partition: a CSR over local IDs, the local→global ID
// vector, the master/mirror split, and the per-proxy structural flags that
// Gluon's communication optimizer consumes (paper §3).
//
// The paper's unified formulation (§3.1): a policy assigns every edge to a
// host; a proxy is created on a host for every endpoint of an edge assigned
// there; the proxy on the node's owner host is the master, all others are
// mirrors. The four strategies differ only in the edge-assignment rule:
//
//	OEC  edge (u,v) → owner(u)   (mirrors have only incoming edges)
//	IEC  edge (u,v) → owner(v)   (mirrors have only outgoing edges)
//	CVC  edge (u,v) → grid(row(owner(u)), col(owner(v)))
//	HVC  low-in-degree v: → owner(v); high-in-degree v: → owner(u)
//	     (an unconstrained vertex cut, the paper's UVC instance)
package partition

import (
	"fmt"
	"math"
)

// Policy assigns nodes (masters) and edges to hosts.
type Policy interface {
	// Name is the short policy identifier ("oec", "iec", "cvc", "hvc").
	Name() string
	// NumHosts returns the number of hosts the policy partitions for.
	NumHosts() int
	// Owner returns the host owning the master proxy of gid.
	Owner(gid uint64) int
	// Bounds returns the NumHosts()+1 chunk boundaries of the node-owner
	// map: host h owns exactly the contiguous global-ID range
	// [Bounds()[h], Bounds()[h+1]). Contiguous ownership is part of the
	// contract — local-ID layout, GID→LID translation and memoization are
	// range arithmetic over these bounds. Callers must not modify the slice.
	Bounds() []uint64
	// EdgeHost returns the host an edge is assigned to.
	EdgeHost(src, dst uint64) int
}

// Kind names a partitioning strategy.
type Kind string

// The four partitioning strategies of the paper.
const (
	OEC Kind = "oec"
	IEC Kind = "iec"
	CVC Kind = "cvc"
	HVC Kind = "hvc"
)

// maxHosts bounds a policy's host count: edge routing records each edge's
// host in 16 bits.
const maxHosts = 1 << 16

// AllKinds lists every supported strategy.
func AllKinds() []Kind { return []Kind{OEC, IEC, CVC, HVC} }

// blockOwner maps global IDs to hosts by contiguous chunks, the paper's
// chunk-based assignment (§5.2). Boundaries may be node-balanced or
// edge-balanced (degree-weighted).
type blockOwner struct {
	bounds []uint64 // bounds[h] .. bounds[h+1] owned by host h
}

func newNodeBalancedOwner(numNodes uint64, hosts int) blockOwner {
	b := make([]uint64, hosts+1)
	for h := 0; h <= hosts; h++ {
		b[h] = numNodes * uint64(h) / uint64(hosts)
	}
	return blockOwner{bounds: b}
}

// newDegreeBalancedOwner picks chunk boundaries so each host gets roughly
// equal total degree, matching the paper's "chunk-based edge-cut that
// balances outgoing (OEC) or incoming (IEC) edges".
func newDegreeBalancedOwner(degrees []uint32, hosts int) blockOwner {
	var total uint64
	for _, d := range degrees {
		total += uint64(d)
	}
	b := make([]uint64, hosts+1)
	b[hosts] = uint64(len(degrees))
	var acc uint64
	h := 1
	target := func(h int) uint64 { return total * uint64(h) / uint64(hosts) }
	for i, d := range degrees {
		acc += uint64(d)
		for h < hosts && acc >= target(h) {
			b[h] = uint64(i + 1)
			h++
		}
	}
	for ; h < hosts; h++ {
		b[h] = uint64(len(degrees))
	}
	return blockOwner{bounds: b}
}

// owner binary-searches the chunk containing gid: the first host whose
// upper bound exceeds it.
func (o blockOwner) owner(gid uint64) int {
	lo, hi := 0, len(o.bounds)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.bounds[mid+1] > gid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// oecPolicy assigns each edge to its source's owner.
type oecPolicy struct{ base }

func (p *oecPolicy) Name() string                 { return string(OEC) }
func (p *oecPolicy) EdgeHost(src, dst uint64) int { return p.Owner(src) }

// iecPolicy assigns each edge to its destination's owner.
type iecPolicy struct{ base }

func (p *iecPolicy) Name() string                 { return string(IEC) }
func (p *iecPolicy) EdgeHost(src, dst uint64) int { return p.Owner(dst) }

// base carries the node-owner map shared by all policies.
type base struct {
	own   blockOwner
	hosts int
}

func (b *base) NumHosts() int        { return b.hosts }
func (b *base) Owner(gid uint64) int { return b.own.owner(gid) }
func (b *base) Bounds() []uint64     { return b.own.bounds }

// cvcPolicy is the Cartesian vertex-cut: hosts form an R×C grid
// (host h sits at row h/C, column h%C); edge (u,v) goes to the host at
// (row of owner(u), column of owner(v)). Only the master (at the
// intersection) can have both incoming and outgoing edges.
type cvcPolicy struct {
	base
	rows, cols int
}

func (p *cvcPolicy) Name() string { return string(CVC) }

func (p *cvcPolicy) EdgeHost(src, dst uint64) int {
	r := p.Owner(src) / p.cols
	c := p.Owner(dst) % p.cols
	return r*p.cols + c
}

// gridShape factors hosts into the most square R×C grid with R*C == hosts.
func gridShape(hosts int) (rows, cols int) {
	rows = int(math.Sqrt(float64(hosts)))
	for rows > 1 && hosts%rows != 0 {
		rows--
	}
	if rows < 1 {
		rows = 1
	}
	return rows, hosts / rows
}

// hvcPolicy is the hybrid vertex-cut of PowerLyra: edges into low-in-degree
// nodes are placed at the destination's owner (local aggregation), edges
// into high-in-degree nodes at the source's owner (spreading hub traffic).
// Because both the in- and out-edges of a node can land on arbitrary hosts,
// this is an unconstrained vertex cut (UVC) in the paper's taxonomy.
type hvcPolicy struct {
	base
	inDeg     []uint32
	threshold uint32
}

func (p *hvcPolicy) Name() string { return string(HVC) }

func (p *hvcPolicy) EdgeHost(src, dst uint64) int {
	if p.inDeg[dst] <= p.threshold {
		return p.Owner(dst)
	}
	return p.Owner(src)
}

// Options configures policy construction.
type Options struct {
	// OutDegrees / InDegrees enable degree-balanced chunking and the HVC
	// threshold. They are indexed by global ID. InDegrees is required for
	// HVC, whose threshold between low- and high-in-degree nodes is 4 × the
	// average in-degree, PowerLyra's recommended regime; both are optional
	// otherwise (node-balanced chunks are used when absent).
	OutDegrees []uint32
	InDegrees  []uint32
}

// NewPolicy constructs the named policy for a graph of numNodes nodes.
func NewPolicy(kind Kind, numNodes uint64, hosts int, opt Options) (Policy, error) {
	if hosts < 1 || hosts > maxHosts {
		return nil, fmt.Errorf("partition: need 1 to %d hosts, got %d", maxHosts, hosts)
	}
	nodeOwner := func(deg []uint32) blockOwner {
		if deg != nil {
			return newDegreeBalancedOwner(deg, hosts)
		}
		return newNodeBalancedOwner(numNodes, hosts)
	}
	switch kind {
	case OEC:
		return &oecPolicy{base{own: nodeOwner(opt.OutDegrees), hosts: hosts}}, nil
	case IEC:
		return &iecPolicy{base{own: nodeOwner(opt.InDegrees), hosts: hosts}}, nil
	case CVC:
		r, c := gridShape(hosts)
		return &cvcPolicy{base: base{own: nodeOwner(opt.OutDegrees), hosts: hosts}, rows: r, cols: c}, nil
	case HVC:
		if opt.InDegrees == nil {
			return nil, fmt.Errorf("partition: HVC requires in-degrees")
		}
		var total uint64
		for _, d := range opt.InDegrees {
			total += uint64(d)
		}
		avg := uint32(1)
		if numNodes > 0 {
			avg = max(uint32(total/numNodes), 1)
		}
		return &hvcPolicy{
			base:      base{own: nodeOwner(opt.InDegrees), hosts: hosts},
			inDeg:     opt.InDegrees,
			threshold: 4 * avg,
		}, nil
	default:
		return nil, fmt.Errorf("partition: unknown policy kind %q", kind)
	}
}
