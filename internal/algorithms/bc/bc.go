// Package bc implements single-source betweenness centrality (Brandes'
// dependency accumulation), another application from the original D-Galois
// suite. Beyond the four paper benchmarks it exercises the synchronization
// patterns the paper calls "complementary" (§3.2): the backward phase
// writes a field at the SOURCE endpoint of edges and reads it at the
// DESTINATION endpoint, so Gluon reduces from mirrors-with-out-edges and
// broadcasts to mirrors-with-in-edges — the mirror image of the push-style
// patterns bfs/cc/pr/sssp need.
//
// Phases (unweighted Brandes):
//
//  1. Forward BFS from the source, accumulating per-node shortest-path
//     counts σ: level is min-reduced, σ is add-reduced (both
//     write-at-destination / read-at-source).
//  2. A full reconciliation of level and σ.
//  3. Backward sweep, one BFS level per round from the deepest level up:
//     δ(v) += σ(v)/σ(w)·(1+δ(w)) over forward edges v→w one level down.
//     δ is written at source, read at destination.
//
// The node's dependency δ is its (single-source) betweenness contribution.
package bc

import (
	"math"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/engine/galois"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// Field IDs for bc's three synchronized fields.
const (
	FieldIDLevel = 11
	FieldIDSigma = 12
	FieldIDDelta = 13
)

// Infinity marks unreached nodes in the forward phase.
const Infinity = fields.InfinityU32

type phase int

const (
	phaseForward phase = iota
	phaseBackward
	phaseDone
)

type program struct {
	p *partition.Partition
	g *gluon.Gluon
	e *galois.Engine

	source uint64

	level     []uint32
	sigmaBits []uint64 // σ as float64 bits (concurrent accumulation)
	deltaBits []uint64 // δ partials as float64 bits

	levelField gluon.Field[uint32]
	sigmaField gluon.Field[float64]
	deltaField gluon.Field[float64]

	phase phase
	// fwdLevel is the level being expanded in the forward phase;
	// backLevel the level being accumulated in the backward phase.
	fwdLevel  uint32
	backLevel int64
	maxLevel  uint32
	// byLevel[l] lists local proxies at level l (built after forward).
	byLevel [][]uint32
}

// New builds the bc program (Galois engine, as in the original suite).
func New(source uint64, workers int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		n := p.NumProxies()
		prog := &program{
			p: p, g: g, source: source,
			e:         galois.New(p.Graph, workers),
			level:     make([]uint32, n),
			sigmaBits: make([]uint64, n),
			deltaBits: make([]uint64, n),
		}
		prog.levelField = gluon.Field[uint32]{
			ID:   FieldIDLevel,
			Name: "bc-level",
			// The forward operator reads the level at BOTH endpoints: at the
			// source to select the frontier, and at the destination to guard
			// the σ accumulation (only first-time claims at exactly cur+1
			// may count paths). Read-anywhere makes Gluon broadcast settled
			// levels to every mirror, so in-edge-only mirrors also learn
			// them and refuse stale claims.
			Write:     gluon.AtDestination,
			Read:      gluon.Anywhere,
			Reduce:    fields.Min[uint32](prog.level),
			Broadcast: fields.Set[uint32](prog.level),
		}
		prog.sigmaField = gluon.Field[float64]{
			ID:        FieldIDSigma,
			Name:      "bc-sigma",
			Write:     gluon.AtDestination,
			Read:      gluon.AtSource,
			Reduce:    fields.SumF64Bits{Bits: prog.sigmaBits},
			Broadcast: fields.SetF64Bits{Bits: prog.sigmaBits},
		}
		prog.deltaField = gluon.Field[float64]{
			ID:   FieldIDDelta,
			Name: "bc-delta",
			// The complementary pattern: δ is accumulated at the SOURCE
			// endpoint of forward edges and read by predecessors at the
			// DESTINATION endpoint.
			Write:     gluon.AtSource,
			Read:      gluon.AtDestination,
			Reduce:    fields.SumF64Bits{Bits: prog.deltaBits},
			Broadcast: fields.SetF64Bits{Bits: prog.deltaBits},
		}
		return prog, nil
	}
}

// Name implements dsys.Program.
func (pr *program) Name() string { return "bc" }

// Init implements dsys.Program.
func (pr *program) Init() (*bitset.Bitset, error) {
	for i := range pr.level {
		pr.level[i] = Infinity
	}
	frontier := bitset.New(pr.p.NumProxies())
	if lid, ok := pr.p.LID(pr.source); ok {
		pr.level[lid] = 0
		fields.AtomicAddF64Bits(&pr.sigmaBits[lid], 1)
		frontier.SetUnsync(lid)
	}
	pr.phase = phaseForward
	pr.fwdLevel = 0
	return frontier, nil
}

// Round implements dsys.Program, dispatching on phase.
func (pr *program) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	switch pr.phase {
	case phaseForward:
		return pr.forwardRound(frontier), nil
	case phaseBackward:
		return pr.backwardRound(), nil
	default:
		return bitset.New(pr.p.NumProxies()), nil
	}
}

// forwardRound expands BFS level fwdLevel, accumulating σ partials at
// level fwdLevel+1 proxies.
func (pr *program) forwardRound(frontier *bitset.Bitset) *bitset.Bitset {
	updated := bitset.New(pr.p.NumProxies())
	cur := pr.fwdLevel
	pr.e.DoAllFrontier(frontier, func(e *galois.Engine, u uint32, push func(uint32)) {
		if pr.level[u] != cur {
			return // stale activation (e.g. dense-mode delivery)
		}
		su := fields.LoadF64Bits(&pr.sigmaBits[u])
		for _, w := range e.Graph.Neighbors(u) {
			// Claim w for level cur+1 (first writer wins locally; the min
			// reduce arbitrates across hosts).
			lw := fields.AtomicLoadU32(&pr.level[w])
			if lw < cur+1 {
				continue
			}
			fields.AtomicMinU32(&pr.level[w], cur+1)
			fields.AtomicAddF64Bits(&pr.sigmaBits[w], su)
			updated.Set(w)
		}
	})
	return updated
}

// backwardRound accumulates δ for nodes at backLevel from their successors
// at backLevel+1.
func (pr *program) backwardRound() *bitset.Bitset {
	updated := bitset.New(pr.p.NumProxies())
	if pr.backLevel < 0 {
		return updated
	}
	lev := uint32(pr.backLevel)
	nodes := pr.byLevel[lev]
	pr.e.DoAll(nodes, func(e *galois.Engine, v uint32, push func(uint32)) {
		sv := fields.LoadF64Bits(&pr.sigmaBits[v])
		if sv == 0 {
			return
		}
		var acc float64
		for _, w := range e.Graph.Neighbors(v) {
			if pr.level[w] == lev+1 {
				sw := fields.LoadF64Bits(&pr.sigmaBits[w])
				if sw > 0 {
					acc += sv / sw * (1 + fields.LoadF64Bits(&pr.deltaBits[w]))
				}
			}
		}
		if acc != 0 {
			fields.AtomicAddF64Bits(&pr.deltaBits[v], acc)
			updated.Set(v)
		}
	})
	return updated
}

// Sync implements dsys.Program: per-phase field synchronization and phase
// transitions (which are global decisions made with all-reduces, so every
// host switches in the same round).
func (pr *program) Sync(updated *bitset.Bitset) error {
	switch pr.phase {
	case phaseForward:
		// Level claims and σ partials travel to masters; settled values
		// come back to source-side mirrors for the next expansion.
		levelUpd := updated.Clone()
		if err := gluon.Sync(pr.g, pr.levelField, levelUpd); err != nil {
			return err
		}
		if err := gluon.Sync(pr.g, pr.sigmaField, updated); err != nil {
			return err
		}
		if err := updated.Union(levelUpd); err != nil {
			return err
		}
		pr.fwdLevel++
		active, err := comm.AllReduceSum(pr.g.T, uint64(updated.Count()))
		if err != nil {
			return err
		}
		if active != 0 {
			return nil
		}
		// Forward phase exhausted: reconcile, build level buckets, seed the
		// backward sweep. updated must end non-empty on some host while any
		// backward work remains, or dsys would stop; the deepest level's
		// owners re-activate here.
		if err := pr.startBackward(updated); err != nil {
			return err
		}
		return nil
	case phaseBackward:
		if err := gluon.Sync(pr.g, pr.deltaField, updated); err != nil {
			return err
		}
		pr.backLevel--
		if pr.backLevel < 0 {
			pr.phase = phaseDone
			// Leave updated as delivered; the final round produces empty
			// updates everywhere and dsys terminates.
		} else {
			// Keep the loop alive: hosts holding next-level nodes stay
			// active.
			for _, v := range pr.byLevel[pr.backLevel] {
				updated.Set(v)
			}
		}
		return nil
	default:
		updated.Reset()
		return nil
	}
}

// startBackward reconciles level and σ on every proxy, buckets local
// proxies by level, and seeds the backward sweep.
func (pr *program) startBackward(updated *bitset.Bitset) error {
	if err := gluon.BroadcastAll(pr.g, pr.levelField); err != nil {
		return err
	}
	if err := gluon.BroadcastAll(pr.g, pr.sigmaField); err != nil {
		return err
	}
	var localMax uint32
	for _, l := range pr.level {
		if l != Infinity && l > localMax {
			localMax = l
		}
	}
	gm, err := comm.AllReduceMax(pr.g.T, uint64(localMax))
	if err != nil {
		return err
	}
	pr.maxLevel = uint32(gm)
	pr.byLevel = make([][]uint32, pr.maxLevel+2)
	for lid, l := range pr.level {
		if l != Infinity {
			pr.byLevel[l] = append(pr.byLevel[l], uint32(lid))
		}
	}
	pr.phase = phaseBackward
	pr.backLevel = int64(pr.maxLevel) - 1
	updated.Reset()
	if pr.backLevel >= 0 {
		for _, v := range pr.byLevel[pr.backLevel] {
			updated.Set(v)
		}
	}
	return nil
}

// Finalize implements dsys.Program.
func (pr *program) Finalize() error {
	return gluon.BroadcastAll(pr.g, pr.deltaField)
}

// MasterValue implements dsys.Program: the node's dependency δ (its
// betweenness contribution for this source). NaN guard for safety.
func (pr *program) MasterValue(lid uint32) float64 {
	d := fields.LoadF64Bits(&pr.deltaBits[lid])
	if math.IsNaN(d) {
		return 0
	}
	return d
}
