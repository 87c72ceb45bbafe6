// Package bfs implements distributed breadth-first search as a vertex
// program over each of the three engines (Ligra, Galois, IrGL). The node
// field is the BFS level, min-reduced across proxies; the operator is
// push-style (write at destination, read at source), so OEC partitions
// need only the reduce pattern and IEC only the broadcast pattern (§3.2).
package bfs

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

// FieldID namespaces bfs's dist field in Gluon's tag space.
const FieldID = 1

// Infinity marks unreached nodes.
const Infinity = fields.InfinityU32

// common holds the engine-independent program state.
type common struct {
	p      *partition.Partition
	g      *gluon.Gluon
	dist   []uint32
	source uint64
	field  gluon.Field[uint32]
}

func newCommon(p *partition.Partition, g *gluon.Gluon, source uint64) *common {
	c := &common{p: p, g: g, source: source}
	c.dist = make([]uint32, p.NumProxies())
	c.field = gluon.Field[uint32]{
		ID:        FieldID,
		Name:      "bfs-dist",
		Write:     gluon.AtDestination,
		Read:      gluon.AtSource,
		Reduce:    fields.Min[uint32](c.dist),
		Broadcast: fields.Set[uint32](c.dist),
	}
	return c
}

// Name implements dsys.Program.
func (c *common) Name() string { return "bfs" }

// Init sets every proxy's level to infinity and seeds the source. Every
// host holding a proxy of the source initializes it locally, so no initial
// communication round is needed.
func (c *common) Init() (*bitset.Bitset, error) {
	for i := range c.dist {
		c.dist[i] = Infinity
	}
	frontier := bitset.New(c.p.NumProxies())
	if lid, ok := c.p.LID(c.source); ok {
		c.dist[lid] = 0
		frontier.SetUnsync(lid)
	}
	return frontier, nil
}

// Sync implements dsys.Program.
func (c *common) Sync(updated *bitset.Bitset) error {
	return gluon.Sync(c.g, c.field, updated)
}

// Finalize implements dsys.Program.
func (c *common) Finalize() error { return gluon.BroadcastAll(c.g, c.field) }

// MasterValue implements dsys.Program.
func (c *common) MasterValue(lid uint32) float64 { return float64(c.dist[lid]) }

// ---------- D-Ligra ----------

type ligraProgram struct {
	*common
	lg      *ligra.Graph
	workers int
}

// NewLigra builds the level-synchronous, direction-optimizing Ligra program.
func NewLigra(source uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		return &ligraProgram{
			common:  newCommon(p, g, source),
			lg:      ligra.NewGraph(p.Graph, true),
			workers: workers,
		}, nil
	}
}

// Round implements dsys.Program: one BFS level via edgeMap.
func (pr *ligraProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	dist := pr.dist
	next := ligra.EdgeMap(pr.lg, frontier, ligra.EdgeMapConfig{
		Workers: pr.workers,
		Cond:    func(d uint32) bool { return fields.AtomicLoadU32(&dist[d]) == Infinity },
		Push: func(s, d, w uint32) bool {
			ds := fields.AtomicLoadU32(&dist[s])
			if ds == Infinity {
				// A broadcast can deliver (and activate) a still-unreached
				// mirror; guard against Infinity+1 wrap-around.
				return false
			}
			return fields.AtomicMinU32(&dist[d], ds+1)
		},
		Pull: func(d, s, w uint32) bool {
			// d has a single writer per pass; s is only read (bfs writes
			// target unreached nodes, and frontier members are reached), so
			// no atomics are needed in dense mode.
			if dist[s] != Infinity && dist[d] > dist[s]+1 {
				dist[d] = dist[s] + 1
				return true
			}
			return false
		},
	})
	return next, nil
}

// ---------- D-Galois ----------

type galoisProgram struct {
	*common
	e *galois.Engine
}

// NewGalois builds the asynchronous worklist program: level updates
// propagate transitively within the host in a single round.
func NewGalois(source uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		return &galoisProgram{
			common: newCommon(p, g, source),
			e:      galois.New(p.Graph, workers),
		}, nil
	}
}

// Round implements dsys.Program: chaotic relaxation until local
// quiescence, with duplicate scheduling suppressed by a scheduled-bit set.
func (pr *galoisProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	dist := pr.dist
	updated := bitset.New(pr.p.NumProxies())
	inWL := frontier.Clone()
	pr.e.DoAllFrontier(frontier, func(e *galois.Engine, u uint32, push func(uint32)) {
		inWL.Clear(u)
		du := fields.AtomicLoadU32(&dist[u])
		if du == Infinity {
			return
		}
		for _, d := range e.Graph.Neighbors(u) {
			if fields.AtomicMinU32(&dist[d], du+1) {
				updated.Set(d)
				if inWL.TestAndSet(d) {
					push(d)
				}
			}
		}
	})
	return updated, nil
}

// ---------- D-IrGL ----------

type irglProgram struct {
	*common
	dev  *irgl.Device
	dbuf *irgl.Buffer[uint32]
}

// NewIrGL builds the bulk-synchronous device program. The dist field lives
// in a device buffer; Gluon's extract/set calls are the staged host/device
// transfers a GPU plugin performs.
func NewIrGL(source uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		dev := irgl.New(p.Graph, workers)
		prog := &irglProgram{common: newCommon(p, g, source), dev: dev}
		prog.dbuf = irgl.NewBuffer[uint32](dev, p.NumProxies())
		// Rebind the sync field onto the device buffer: the buffer specs
		// provide the bulk extract variant and account every host/device
		// staging copy.
		prog.dist = prog.dbuf.Data()
		prog.field.Reduce = irgl.MinBuf(prog.dbuf)
		prog.field.Broadcast = irgl.SetBuf(prog.dbuf)
		return prog, nil
	}
}

// Round implements dsys.Program: one data-driven relaxation kernel.
func (pr *irglProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	dist := pr.dbuf.Data()
	updated := bitset.New(pr.p.NumProxies())
	csr := pr.dev.Graph
	pr.dev.KernelMasked(frontier, func(u uint32) {
		du := fields.AtomicLoadU32(&dist[u])
		if du == Infinity {
			return
		}
		for _, d := range csr.Neighbors(u) {
			if fields.AtomicMinU32(&dist[d], du+1) {
				updated.Set(d)
			}
		}
	})
	return updated, nil
}
