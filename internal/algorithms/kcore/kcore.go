// Package kcore implements distributed k-core decomposition by iterative
// peeling, one of the applications shipped with the original D-Galois
// suite. A node is in the k-core if it survives repeated removal of all
// nodes with (undirected) degree < k.
//
// The algorithm exercises a synchronization shape the four paper
// benchmarks do not: two fields with opposite flows —
//
//   - trims: when a node is peeled, each neighbor's trim counter is
//     incremented — write-at-destination, add-reduced to masters, mirrors
//     reset to 0 (no broadcast: nothing reads a remote trim);
//   - dead: only masters decide peeling (current degree = initial degree −
//     total trims); the decision broadcasts to the mirrors whose out-edges
//     will stop propagating — read-at-source, broadcast-only.
//
// Input must be symmetrized (peeling is an undirected notion), as with cc.
package kcore

import (
	"gluon/internal/bitset"
	"gluon/internal/dsys"
	"gluon/internal/engine/galois"
	"gluon/internal/engine/irgl"
	"gluon/internal/engine/ligra"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// Field IDs for kcore's two synchronized fields.
const (
	FieldIDTrims = 9
	FieldIDDead  = 10
)

type common struct {
	p *partition.Partition
	g *gluon.Gluon
	k uint64

	deg     []uint64       // global degree, fixed after Init
	trims   []uint64       // pending trim counts (this round's increments)
	dead    []uint32       // 0 alive, 1 peeled
	peeled  *bitset.Bitset // proxies that already trimmed their neighbors
	updated *bitset.Pair   // what Round returns, alternating

	trimsField gluon.Field[uint64]
	deadField  gluon.Field[uint32]
	degField   gluon.Field[uint64]
}

func newCommon(p *partition.Partition, g *gluon.Gluon, k uint64) *common {
	n := p.NumProxies()
	c := &common{
		p: p, g: g, k: k,
		deg:     make([]uint64, n),
		trims:   make([]uint64, n),
		dead:    make([]uint32, n),
		peeled:  bitset.New(n),
		updated: bitset.NewPair(n),
	}
	c.trimsField = gluon.Field[uint64]{
		ID:     FieldIDTrims,
		Name:   "kcore-trims",
		Write:  gluon.AtDestination,
		Read:   gluon.AtDestination,
		Reduce: fields.Sum[uint64](c.trims),
	}
	c.deadField = gluon.Field[uint32]{
		ID:        FieldIDDead,
		Name:      "kcore-dead",
		Write:     gluon.AtDestination,
		Read:      gluon.AtSource,
		Broadcast: fields.Set[uint32](c.dead),
	}
	// Only masters read deg (decide), so the degree sync is reduce-only.
	c.degField = gluon.Field[uint64]{
		ID:     FieldIDTrims + 100,
		Name:   "kcore-deg",
		Write:  gluon.AtSource,
		Reduce: fields.Sum[uint64](c.deg),
	}
	return c
}

// Name implements dsys.Program.
func (c *common) Name() string { return "kcore" }

// Init computes masters' global degrees (one-time reduce of local
// out-degrees, which on a symmetrized graph equal undirected degrees) and
// peels round zero: every master with degree < k dies immediately.
func (c *common) Init() (*bitset.Bitset, error) {
	for lid := uint32(0); lid < c.p.NumProxies(); lid++ {
		c.deg[lid] = uint64(c.p.Graph.OutDegree(lid))
	}
	if err := gluon.Sync(c.g, c.degField, nil); err != nil {
		return nil, err
	}
	// Peel round zero — trims are all zero, so every master below k dies —
	// and propagate the deaths to mirrors with out-edges, activating them
	// for the first peel round.
	frontier := bitset.New(c.p.NumProxies())
	if err := gluon.SyncApply(c.g, gluon.Field[uint64]{}, c.decide(frontier), c.deadField, frontier); err != nil {
		return nil, err
	}
	return frontier, nil
}

// Sync implements dsys.Program: reduce trim counts to masters, peel masters
// that fell below k, broadcast the new deaths — one streamed sync.
func (c *common) Sync(updated *bitset.Bitset) error {
	return gluon.SyncApply(c.g, c.trimsField, c.decide(updated), c.deadField, updated)
}

// decide is the apply hook of a sync: each live master of [lo, hi) takes
// its trims off its degree and dies, marked in updated, once the degree is
// below k. A live master's degree is at least k (Init kills the rest, and
// only trims lower it), so one without trims survives.
func (c *common) decide(updated *bitset.Bitset) func(lo, hi uint32) {
	return func(lo, hi uint32) {
		mark := updated.Marker()
		for m := lo; m < hi; m++ {
			t := c.trims[m]
			c.trims[m] = 0
			if c.dead[m] != 0 {
				continue
			}
			c.deg[m] -= min(t, c.deg[m])
			if c.deg[m] < c.k {
				c.dead[m] = 1
				mark.Set(m)
			}
		}
		mark.Flush()
	}
}

// Finalize implements dsys.Program.
func (c *common) Finalize() error { return gluon.BroadcastAll(c.g, c.deadField) }

// MasterValue implements dsys.Program: 1 if the node is in the k-core.
func (c *common) MasterValue(lid uint32) float64 {
	if c.dead[lid] == 0 {
		return 1
	}
	return 0
}

// peel increments the trim counter of every neighbor of a newly dead
// proxy. Guards make peeling exactly-once per proxy: a dense-mode dead
// broadcast may redeliver old deaths (or alive zeros), and delivery
// activates the receiving mirror unconditionally.
func (c *common) peel(u uint32, updated *bitset.Bitset) {
	if c.dead[u] == 0 || !c.peeled.TestAndSet(u) {
		return
	}
	for _, d := range c.p.Graph.Neighbors(u) {
		fields.AtomicAddU64(&c.trims[d], 1)
		updated.Set(d)
	}
}

// ---------- D-Galois ----------

type galoisProgram struct {
	*common
	e *galois.Engine
}

// NewGalois builds the worklist peeling program.
func NewGalois(k uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		return &galoisProgram{common: newCommon(p, g, k), e: galois.New(p.Graph, workers)}, nil
	}
}

// Round implements dsys.Program: every proxy newly marked dead trims its
// local neighbors once.
func (pr *galoisProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	updated := pr.updated.Next(frontier)
	pr.e.DoAllFrontier(frontier, func(e *galois.Engine, u uint32, push func(uint32)) {
		pr.peel(u, updated)
	})
	return updated, nil
}

// ---------- D-IrGL ----------

type irglProgram struct {
	*common
	dev *irgl.Device
}

// NewIrGL builds the device peeling program: one masked kernel per round
// over the newly dead proxies.
func NewIrGL(k uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		return &irglProgram{common: newCommon(p, g, k), dev: irgl.New(p.Graph, workers)}, nil
	}
}

// Round implements dsys.Program.
func (pr *irglProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	updated := pr.updated.Next(frontier)
	pr.dev.KernelMasked(frontier, func(u uint32) {
		pr.peel(u, updated)
	})
	return updated, nil
}

// ---------- D-Ligra ----------

type ligraProgram struct {
	*common
	workers int
}

// NewLigra builds the frontier-based peeling program.
func NewLigra(k uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		return &ligraProgram{common: newCommon(p, g, k), workers: workers}, nil
	}
}

// Round implements dsys.Program via vertexMap over the dead frontier.
func (pr *ligraProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	updated := pr.updated.Next(frontier)
	ligra.VertexMap(frontier, pr.workers, func(u uint32) {
		pr.peel(u, updated)
	})
	return updated, nil
}
