package pr

// Push-style (residual) PageRank — the variant the paper's §2.3 uses to
// illustrate mirror resets: "for push-style pagerank, the labels are reset
// to 0". Every node keeps an unconsumed residual; when the master consumes
// it, the residual moves into the node's rank and a per-edge share
// δ = α·r/outdeg(v) is pushed along every out-edge of v.
//
// Distributed, this uses two fields, which keeps all flows one-directional
// and double-count-free:
//
//   - residual: write-at-destination, reduce-only. Proxies accumulate
//     partial residuals from their local in-edges; partials add-reduce to
//     the master and mirrors reset to the + identity, 0 (the paper's
//     example).
//   - delta: read-at-source, broadcast-only. Only the master computes δ
//     when consuming; mirrors holding v's out-edges receive δ read-only and
//     apply it to their local out-neighbors next round. Out-edges of v are
//     partitioned across proxies, so each edge sees δ exactly once.
//
// Ranks live only on masters and are never communicated; the converged
// estimate of node v is rank(v) + leftover residual(v).

import (
	"gluon/internal/bitset"
	"gluon/internal/dsys"
	"gluon/internal/engine/galois"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// Field IDs for the push variant.
const (
	FieldIDResidual = 7
	FieldIDDelta    = 8
)

type pushProgram struct {
	p   *partition.Partition
	g   *gluon.Gluon
	e   *galois.Engine
	tol float64

	rank      []float64 // masters only (by local ID)
	resBits   []uint64  // residual partials as float64 bits, all proxies
	deltaBits []uint64  // per-round consumed share, masters + out-mirrors
	outdeg    []uint64

	resField    gluon.Field[float64]
	deltaField  gluon.Field[float64]
	outdegField gluon.Field[uint64]
}

// NewGaloisPush builds the push-style PageRank program on the Galois
// engine.
func NewGaloisPush(tol float64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		if tol <= 0 {
			tol = DefaultTolerance
		}
		n := p.NumProxies()
		prog := &pushProgram{
			p: p, g: g, tol: tol,
			e:         galois.New(p.Graph, workers),
			rank:      make([]float64, n),
			resBits:   make([]uint64, n),
			deltaBits: make([]uint64, n),
			outdeg:    make([]uint64, n),
		}
		prog.resField = gluon.Field[float64]{
			ID:     FieldIDResidual,
			Name:   "pr-residual",
			Write:  gluon.AtDestination,
			Read:   gluon.AtDestination,
			Reduce: fields.SumF64Bits{Bits: prog.resBits},
		}
		prog.deltaField = gluon.Field[float64]{
			ID:        FieldIDDelta,
			Name:      "pr-delta",
			Write:     gluon.AtDestination, // only masters write it, during apply
			Read:      gluon.AtSource,
			Broadcast: fields.SetF64Bits{Bits: prog.deltaBits},
		}
		prog.outdegField = gluon.Field[uint64]{
			ID:        FieldIDOutDeg,
			Name:      "pr-outdeg",
			Write:     gluon.AtSource,
			Read:      gluon.AtSource,
			Reduce:    fields.Sum[uint64](prog.outdeg),
			Broadcast: fields.Set[uint64](prog.outdeg),
		}
		return prog, nil
	}
}

// Name implements dsys.Program.
func (pp *pushProgram) Name() string { return "pr-push" }

// Init implements dsys.Program: global out-degrees via a one-time sync;
// masters seed their residual with the teleport mass and immediately
// consume it into the first round's deltas.
func (pp *pushProgram) Init() (*bitset.Bitset, error) {
	n := pp.p.NumProxies()
	for lid := uint32(0); lid < n; lid++ {
		pp.outdeg[lid] = uint64(pp.p.Graph.OutDegree(lid))
	}
	if err := gluon.Sync(pp.g, pp.outdegField, nil); err != nil {
		return nil, err
	}
	for lid := uint32(0); lid < pp.p.NumMasters; lid++ {
		fields.AtomicAddF64Bits(&pp.resBits[lid], 1-Alpha)
	}
	frontier := bitset.New(n)
	if err := pp.applyAndBroadcast(frontier); err != nil {
		return nil, err
	}
	return frontier, nil
}

// Round implements dsys.Program: every active proxy consumes its delta
// once, pushing it to its local out-neighbors' residual partials.
func (pp *pushProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	updated := bitset.New(pp.p.NumProxies())
	pp.e.DoAllFrontier(frontier, func(e *galois.Engine, u uint32, push func(uint32)) {
		d := fields.AtomicSwapF64Bits(&pp.deltaBits[u], 0)
		if d == 0 {
			return
		}
		for _, nb := range e.Graph.Neighbors(u) {
			fields.AtomicAddF64Bits(&pp.resBits[nb], d)
			updated.Set(nb)
		}
	})
	return updated, nil
}

// Sync implements dsys.Program: reduce residual partials to masters, apply
// (consume residual into rank, emit delta), broadcast deltas.
func (pp *pushProgram) Sync(updated *bitset.Bitset) error {
	if err := gluon.SyncReduce(pp.g, pp.resField, updated); err != nil {
		return err
	}
	return pp.applyAndBroadcast(updated)
}

// applyAndBroadcast consumes master residuals above tolerance and ships the
// resulting deltas; on return, updated holds the next frontier.
func (pp *pushProgram) applyAndBroadcast(updated *bitset.Bitset) error {
	updated.Reset()
	for m := uint32(0); m < pp.p.NumMasters; m++ {
		r := fields.LoadF64Bits(&pp.resBits[m])
		if r < pp.tol {
			continue
		}
		fields.AtomicSwapF64Bits(&pp.resBits[m], 0)
		pp.rank[m] += r
		if deg := pp.outdeg[m]; deg > 0 {
			fields.AtomicSwapF64Bits(&pp.deltaBits[m], Alpha*r/float64(deg))
			updated.SetUnsync(m)
		}
	}
	return gluon.SyncBroadcast(pp.g, pp.deltaField, updated)
}

// Finalize implements dsys.Program: sweep residual partials still sitting
// on mirrors back to their masters so rank+residual is exact up to the
// consumed mass. Mirror residuals are pure partials (delta copies live in a
// separate field), so a full reduce cannot double-count.
func (pp *pushProgram) Finalize() error {
	return gluon.SyncReduce(pp.g, pp.resField, nil)
}

// MasterValue implements dsys.Program: converged rank estimate.
func (pp *pushProgram) MasterValue(lid uint32) float64 {
	return pp.rank[lid] + fields.LoadF64Bits(&pp.resBits[lid])
}
