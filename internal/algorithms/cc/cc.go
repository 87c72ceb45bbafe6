// Package cc implements distributed connected components by label
// propagation: every node starts with its own global ID as its component
// label and repeatedly adopts the minimum label of its neighbors. Labels
// are min-reduced across proxies, write-at-destination / read-at-source —
// the same synchronization shape as bfs/sssp.
//
// Label propagation assumes an undirected (symmetrized) input, which is how
// the experiment harness prepares cc workloads; the paper likewise uses
// label propagation in D-Galois ("better for low-diameter graphs", §5.4).
package cc

import (
	"fmt"

	"gluon/internal/bitset"
	"gluon/internal/dsys"
	"gluon/internal/engine/galois"
	"gluon/internal/engine/irgl"
	"gluon/internal/engine/ligra"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// FieldID namespaces cc's component field in Gluon's tag space.
const FieldID = 2

type common struct {
	p     *partition.Partition
	g     *gluon.Gluon
	comp  []uint32
	field gluon.Field[uint32]
}

func newCommon(p *partition.Partition, g *gluon.Gluon) (*common, error) {
	if p.GlobalNodes > 1<<32-1 {
		return nil, fmt.Errorf("cc: global IDs exceed 32-bit labels")
	}
	c := &common{p: p, g: g}
	c.comp = make([]uint32, p.NumProxies())
	c.field = gluon.Field[uint32]{
		ID:        FieldID,
		Name:      "cc-comp",
		Write:     gluon.AtDestination,
		Read:      gluon.AtSource,
		Reduce:    fields.Min[uint32](c.comp),
		Broadcast: fields.Set[uint32](c.comp),
	}
	return c, nil
}

// Name implements dsys.Program.
func (c *common) Name() string { return "cc" }

// Init gives every proxy its node's global ID as the initial label —
// consistent across hosts with no communication — and activates everything.
func (c *common) Init() (*bitset.Bitset, error) {
	for lid := range c.comp {
		c.comp[lid] = uint32(c.p.GID(uint32(lid)))
	}
	frontier := bitset.New(c.p.NumProxies())
	frontier.SetAll()
	return frontier, nil
}

// Sync implements dsys.Program.
func (c *common) Sync(updated *bitset.Bitset) error {
	return gluon.Sync(c.g, c.field, updated)
}

// Finalize implements dsys.Program.
func (c *common) Finalize() error { return gluon.BroadcastAll(c.g, c.field) }

// MasterValue implements dsys.Program.
func (c *common) MasterValue(lid uint32) float64 { return float64(c.comp[lid]) }

// ---------- D-Ligra ----------

type ligraProgram struct {
	*common
	lg      *ligra.Graph
	workers int
}

// NewLigra builds the level-synchronous label-propagation program.
func NewLigra(workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		c, err := newCommon(p, g)
		if err != nil {
			return nil, err
		}
		return &ligraProgram{common: c, lg: ligra.NewGraph(p.Graph, true), workers: workers}, nil
	}
}

// Round implements dsys.Program.
func (pr *ligraProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	comp := pr.comp
	next := ligra.EdgeMap(pr.lg, frontier, ligra.EdgeMapConfig{
		Workers: pr.workers,
		Push: func(s, d, w uint32) bool {
			return fields.AtomicMinU32(&comp[d], fields.AtomicLoadU32(&comp[s]))
		},
		Pull: func(d, s, w uint32) bool {
			// d has a single writer per pass, but s may be another
			// worker's d in the same pass; labels are monotone, so any
			// atomically-read value is a valid label.
			cs := fields.AtomicLoadU32(&comp[s])
			if cs < comp[d] {
				fields.AtomicStoreU32(&comp[d], cs)
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

// NewGalois builds the asynchronous label-propagation program.
func NewGalois(workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		c, err := newCommon(p, g)
		if err != nil {
			return nil, err
		}
		return &galoisProgram{common: c, e: galois.New(p.Graph, workers)}, nil
	}
}

// Round implements dsys.Program. A scheduled-bit set suppresses duplicate
// worklist entries: a node whose label keeps dropping is re-examined once,
// not once per drop (Galois' standard dedup discipline).
func (pr *galoisProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	comp := pr.comp
	n := pr.p.NumProxies()
	updated := bitset.New(n)
	inWL := frontier.Clone()
	pr.e.DoAllFrontier(frontier, func(e *galois.Engine, u uint32, push func(uint32)) {
		inWL.Clear(u)
		cu := fields.AtomicLoadU32(&comp[u])
		for _, d := range e.Graph.Neighbors(u) {
			if fields.AtomicMinU32(&comp[d], cu) {
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

// NewIrGL builds the bulk-synchronous device program.
func NewIrGL(workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		c, err := newCommon(p, g)
		if err != nil {
			return nil, err
		}
		dev := irgl.New(p.Graph, workers)
		prog := &irglProgram{common: c, dev: dev}
		prog.dbuf = irgl.NewBuffer[uint32](dev, p.NumProxies())
		prog.comp = prog.dbuf.Data()
		prog.field.Reduce = irgl.MinBuf(prog.dbuf)
		prog.field.Broadcast = irgl.SetBuf(prog.dbuf)
		return prog, nil
	}
}

// Round implements dsys.Program.
func (pr *irglProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	comp := pr.dbuf.Data()
	updated := bitset.New(pr.p.NumProxies())
	csr := pr.dev.Graph
	pr.dev.KernelMasked(frontier, func(u uint32) {
		cu := fields.AtomicLoadU32(&comp[u])
		for _, d := range csr.Neighbors(u) {
			if fields.AtomicMinU32(&comp[d], cu) {
				updated.Set(d)
			}
		}
	})
	return updated, nil
}
