// Package sssp implements distributed single-source shortest paths as a
// push-style data-driven vertex program (the paper's relaxation operator:
// set l(w) to min(l(w), l(v) + weight(v,w))). The distance field is
// min-reduced across proxies, write-at-destination / read-at-source.
//
// The D-Galois variant performs chaotic relaxation within each host (the
// paper's §5.4: "propagates such updates in the same round within the same
// host, like chaotic relaxation in sssp").
package sssp

import (
	"fmt"

	"gluon/internal/bitset"
	"gluon/internal/ckpt"
	"gluon/internal/dsys"
	"gluon/internal/engine/galois"
	"gluon/internal/engine/irgl"
	"gluon/internal/engine/ligra"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// FieldID namespaces sssp's dist field in Gluon's tag space.
const FieldID = 3

// Infinity marks unreached nodes.
const Infinity = fields.InfinityU32

type common struct {
	p      *partition.Partition
	g      *gluon.Gluon
	dist   []uint32
	source uint64
	field  gluon.Field[uint32]
}

func newCommon(p *partition.Partition, g *gluon.Gluon, source uint64) (*common, error) {
	if !p.Graph.HasWeights {
		return nil, fmt.Errorf("sssp: partition graph has no edge weights")
	}
	c := &common{p: p, g: g, source: source}
	c.dist = make([]uint32, p.NumProxies())
	c.field = gluon.Field[uint32]{
		ID:        FieldID,
		Name:      "sssp-dist",
		Write:     gluon.AtDestination,
		Read:      gluon.AtSource,
		Reduce:    fields.Min[uint32](c.dist),
		Broadcast: fields.Set[uint32](c.dist),
	}
	return c, nil
}

// Name implements dsys.Program.
func (c *common) Name() string { return "sssp" }

// secDist names the checkpoint section holding the distance labels.
const secDist = "sssp-dist"

// ExportState implements dsys.Checkpointable. The distance field is the
// program's entire round-boundary state (worklists are rebuilt from the
// runner's checkpointed frontier).
func (c *common) ExportState() ([]ckpt.Section, error) {
	return []ckpt.Section{{Name: secDist, Data: fields.EncodeVals(nil, c.dist)}}, nil
}

// ImportState implements dsys.Checkpointable, decoding in place so the
// IrGL variant's device buffer (which c.dist aliases) sees the restored
// labels.
func (c *common) ImportState(secs []ckpt.Section) error {
	snap := ckpt.Snapshot{Sections: secs}
	data := snap.Section(secDist)
	if data == nil {
		return fmt.Errorf("sssp: checkpoint has no %s section", secDist)
	}
	if err := fields.DecodeVals(data, c.dist); err != nil {
		return fmt.Errorf("sssp: restore %s: %w", secDist, err)
	}
	return nil
}

// Init implements dsys.Program.
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

// relax lowers dist[d] to dist[u]+w, saturating instead of overflowing.
func relax(dist []uint32, du, w uint32, d uint32) bool {
	nd := du + w
	if nd < du { // overflow
		nd = Infinity - 1
	}
	return fields.AtomicMinU32(&dist[d], nd)
}

// ---------- D-Ligra ----------

type ligraProgram struct {
	*common
	lg      *ligra.Graph
	workers int
}

// NewLigra builds the level-synchronous Bellman-Ford-style Ligra program.
func NewLigra(source uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		c, err := newCommon(p, g, source)
		if err != nil {
			return nil, err
		}
		return &ligraProgram{common: c, lg: ligra.NewGraph(p.Graph, false), workers: workers}, nil
	}
}

// Round implements dsys.Program.
func (pr *ligraProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	dist := pr.dist
	next := ligra.EdgeMap(pr.lg, frontier, ligra.EdgeMapConfig{
		Workers: pr.workers,
		Push: func(s, d, w uint32) bool {
			du := fields.AtomicLoadU32(&dist[s])
			if du == Infinity {
				return false
			}
			return relax(dist, du, w, d)
		},
	})
	return next, nil
}

// ---------- D-Galois ----------

type galoisProgram struct {
	*common
	e *galois.Engine
}

// NewGalois builds the asynchronous chaotic-relaxation program.
func NewGalois(source uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		c, err := newCommon(p, g, source)
		if err != nil {
			return nil, err
		}
		return &galoisProgram{common: c, e: galois.New(p.Graph, workers)}, nil
	}
}

// Round implements dsys.Program: chaotic relaxation with duplicate
// scheduling suppressed by a scheduled-bit set.
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
		nbrs := e.Graph.Neighbors(u)
		ws := e.Graph.EdgeWeights(u)
		for i, d := range nbrs {
			if relax(dist, du, ws[i], d) {
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
func NewIrGL(source uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		c, err := newCommon(p, g, source)
		if err != nil {
			return nil, err
		}
		dev := irgl.New(p.Graph, workers)
		prog := &irglProgram{common: c, dev: dev}
		prog.dbuf = irgl.NewBuffer[uint32](dev, p.NumProxies())
		prog.dist = prog.dbuf.Data()
		prog.field.Reduce = irgl.MinBuf(prog.dbuf)
		prog.field.Broadcast = irgl.SetBuf(prog.dbuf)
		return prog, nil
	}
}

// Round implements dsys.Program.
func (pr *irglProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	dist := pr.dbuf.Data()
	updated := bitset.New(pr.p.NumProxies())
	csr := pr.dev.Graph
	pr.dev.KernelMasked(frontier, func(u uint32) {
		du := fields.AtomicLoadU32(&dist[u])
		if du == Infinity {
			return
		}
		nbrs := csr.Neighbors(u)
		ws := csr.EdgeWeights(u)
		for i, d := range nbrs {
			if relax(dist, du, ws[i], d) {
				updated.Set(d)
			}
		}
	})
	return updated, nil
}
