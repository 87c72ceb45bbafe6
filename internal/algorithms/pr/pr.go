// Package pr implements distributed PageRank as a pull-style vertex
// program (the paper's choice for D-Galois and D-IrGL): each round, every
// node gathers rank/out-degree contributions over its incoming edges.
//
// Three Gluon fields demonstrate the substrate's field-sensitivity (§3.3):
//
//   - outdeg (one-time, at Init): each proxy's local out-degree is
//     sum-reduced to the master and broadcast back, yielding global
//     out-degrees — written and read at edge sources.
//   - contrib (each round): partial dangling sums are add-reduced from
//     mirrors to masters — write at destination, no broadcast.
//   - rank (each round): the new rank is broadcast from masters to the
//     mirrors that will be read as edge sources — read at source, no reduce.
//
// Ranks use the standard damped recurrence rank(v) = (1-α) + α·Σ
// rank(u)/outdeg(u); iteration stops when no master moves more than the
// tolerance, or at the round cap the harness sets (the paper uses 100).
package pr

import (
	"fmt"
	"math"

	"gluon/internal/bitset"
	"gluon/internal/ckpt"
	"gluon/internal/dsys"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/par"
	"gluon/internal/partition"
)

// Field IDs for pr's three synchronized fields.
const (
	FieldIDContrib = 4
	FieldIDRank    = 5
	FieldIDOutDeg  = 6
)

// Alpha is the damping factor.
const Alpha = 0.85

// DefaultTolerance matches the paper's setting for large inputs.
const DefaultTolerance = 1e-6

type common struct {
	p   *partition.Partition
	g   *gluon.Gluon
	tol float64

	rank    []float64
	contrib []float64
	outdeg  []uint64
	// share[u] is rank[u]/outdeg[u], what u sends along each of its
	// out-edges this round. It is refilled from rank and outdeg at the top
	// of every round, so it is neither synchronized nor checkpointed.
	share   []float64
	updated *bitset.Pair

	contribField gluon.Field[float64]
	rankField    gluon.Field[float64]
	outdegField  gluon.Field[uint64]
}

func newCommon(p *partition.Partition, g *gluon.Gluon, tol float64) *common {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	n := p.NumProxies()
	c := &common{
		p: p, g: g, tol: tol,
		rank:    make([]float64, n),
		contrib: make([]float64, n),
		outdeg:  make([]uint64, n),
		share:   make([]float64, n),
		updated: bitset.NewPair(n),
	}
	c.contribField = gluon.Field[float64]{
		ID:     FieldIDContrib,
		Name:   "pr-contrib",
		Write:  gluon.AtDestination,
		Read:   gluon.AtDestination,
		Reduce: fields.Sum[float64](c.contrib),
	}
	c.rankField = gluon.Field[float64]{
		ID:        FieldIDRank,
		Name:      "pr-rank",
		Write:     gluon.AtDestination,
		Read:      gluon.AtSource,
		Broadcast: fields.Set[float64](c.rank),
	}
	c.outdegField = gluon.Field[uint64]{
		ID:        FieldIDOutDeg,
		Name:      "pr-outdeg",
		Write:     gluon.AtSource,
		Read:      gluon.AtSource,
		Reduce:    fields.Sum[uint64](c.outdeg),
		Broadcast: fields.Set[uint64](c.outdeg),
	}
	return c
}

// Name implements dsys.Program.
func (c *common) Name() string { return "pr" }

// Checkpoint section names for the three synchronized fields.
const (
	secRank    = "pr-rank"
	secContrib = "pr-contrib"
	secOutdeg  = "pr-outdeg"
)

// ExportState implements dsys.Checkpointable: copies of the three field
// arrays, so the checkpoint writer can drain them while rounds continue.
func (c *common) ExportState() ([]ckpt.Section, error) {
	return []ckpt.Section{
		{Name: secRank, Data: fields.EncodeVals(nil, c.rank)},
		{Name: secContrib, Data: fields.EncodeVals(nil, c.contrib)},
		{Name: secOutdeg, Data: fields.EncodeVals(nil, c.outdeg)},
	}, nil
}

// ImportState implements dsys.Checkpointable. Decoding is in place, into
// the arrays the gluon.Field specs were built over, so the next round and
// the next sync see the restored values.
func (c *common) ImportState(secs []ckpt.Section) error {
	snap := &ckpt.Snapshot{Sections: secs}
	for _, s := range []struct {
		name string
		dec  func([]byte) error
	}{
		{secRank, func(b []byte) error { return fields.DecodeVals(b, c.rank) }},
		{secContrib, func(b []byte) error { return fields.DecodeVals(b, c.contrib) }},
		{secOutdeg, func(b []byte) error { return fields.DecodeVals(b, c.outdeg) }},
	} {
		data := snap.Section(s.name)
		if data == nil {
			return fmt.Errorf("pr: checkpoint has no %s section", s.name)
		}
		if err := s.dec(data); err != nil {
			return fmt.Errorf("pr: checkpoint section %s: %w", s.name, err)
		}
	}
	return nil
}

// Init computes global out-degrees with a one-time field sync and seeds
// every proxy's rank with the teleport mass.
func (c *common) Init() (*bitset.Bitset, error) {
	for lid := uint32(0); lid < c.p.NumProxies(); lid++ {
		c.outdeg[lid] = uint64(c.p.Graph.OutDegree(lid))
		c.rank[lid] = 1 - Alpha
		c.contrib[lid] = 0
	}
	if err := gluon.Sync(c.g, c.outdegField, nil); err != nil {
		return nil, err
	}
	frontier := bitset.New(c.p.NumProxies())
	frontier.SetAll()
	return frontier, nil
}

// Sync implements dsys.Program: reduce contributions, apply the PageRank
// update on masters, broadcast new ranks — one streamed sync, so the ranks
// of a master range go out as soon as its contributions are in.
func (c *common) Sync(updated *bitset.Bitset) error {
	return gluon.SyncApply(c.g, c.contribField, func(lo, hi uint32) {
		mark := updated.Marker()
		for m := lo; m < hi; m++ {
			newRank := (1 - Alpha) + Alpha*c.contrib[m]
			delta := math.Abs(newRank - c.rank[m])
			c.rank[m] = newRank
			c.contrib[m] = 0
			if delta > c.tol {
				mark.Set(m)
			}
		}
		mark.Flush()
	}, c.rankField, updated)
}

// Finalize implements dsys.Program.
func (c *common) Finalize() error { return gluon.BroadcastAll(c.g, c.rankField) }

// MasterValue implements dsys.Program.
func (c *common) MasterValue(lid uint32) float64 { return c.rank[lid] }

// fillShare recomputes share over the proxies [lo, hi): one divide per
// vertex, where dividing inside gather costs one per edge for a quotient
// that does not change during the round. A proxy without out-edges anywhere
// is skipped (its quotient would be Inf or NaN); no in-edge names it, so its
// entry is never read.
func (c *common) fillShare(lo, hi int) {
	for u := lo; u < hi; u++ {
		if d := c.outdeg[u]; d != 0 {
			c.share[u] = c.rank[u] / float64(d)
		}
	}
}

// gather is the operator, over the in-graph rows [lo, hi): recompute each
// row's contrib as the sum of its in-neighbours' shares, marking nonzero
// rows in updated. The sum is one accumulator in neighbour order — splitting
// it would reassociate the additions and change low bits of every later
// rank. Single writer per destination, so contrib needs no atomics, and the
// marks go out a word at a time (chunks of different workers can share one).
func (c *common) gather(in *graph.CSR, lo, hi int, updated *bitset.Bitset) {
	share, mark := c.share, updated.Marker()
	for v := lo; v < hi; v++ {
		var sum float64
		for _, u := range in.Neighbors(uint32(v)) {
			sum += share[u]
		}
		c.contrib[v] = sum
		if sum != 0 {
			mark.Set(uint32(v))
		}
	}
	mark.Flush()
}

// program is pull pagerank on every engine. A Ligra dense vertexMap, a
// Galois topology-driven do_all and an IrGL kernel over every node all come
// to the same loop here — par.Range over the NumProxies rows of the
// in-graph — so the three engines run one Round.
type program struct {
	*common
	in      *graph.CSR
	workers int
}

// NewGalois builds pull PageRank as D-Galois runs it: a topology-driven
// do_all.
func NewGalois(tol float64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		return &program{common: newCommon(p, g, tol), in: p.InGraph(), workers: workers}, nil
	}
}

// NewLigra builds pull PageRank as D-Ligra runs it: a dense vertexMap over
// the in-edges.
func NewLigra(tol float64, workers int) dsys.ProgramFactory { return NewGalois(tol, workers) }

// NewIrGL builds pull PageRank as D-IrGL runs it: topology-driven kernels
// over every node.
func NewIrGL(tol float64, workers int) dsys.ProgramFactory { return NewGalois(tol, workers) }

// Round implements dsys.Program: the operator once over every proxy, in two
// passes whose join separates them, because gather reads share entries that
// other chunks wrote. The operator reads no frontier; Round only keeps the
// updated set it returns apart from the one it was handed.
func (pr *program) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	n, updated := int(pr.p.NumProxies()), pr.updated.Next(frontier)
	par.Range(n, pr.workers, pr.fillShare)
	par.Range(n, pr.workers, func(lo, hi int) { pr.gather(pr.in, lo, hi, updated) })
	return updated, nil
}
