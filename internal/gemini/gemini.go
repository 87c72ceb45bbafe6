// Package gemini implements the baseline comparator system of the paper's
// evaluation: a monolithic, computation-centric distributed graph engine in
// the style of Gemini (Zhu et al., OSDI'16) as the paper uses it —
//
//   - chunk-based outgoing edge-cut partitioning only (no vertex cuts);
//   - computation and communication integrated in one engine (no substrate
//     reuse);
//   - synchronization ships (global-ID, value) pairs and the receiver
//     translates IDs on arrival — no memoized orders, no adaptive metadata
//     encodings, no structurally-pruned patterns.
//
// Tables 2-4 and Figure 8 compare the Gluon systems against this baseline;
// Table 5's "Gunrock-style" entry is this engine's communication discipline
// applied to device-engine runs.
package gemini

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"gluon/internal/algorithms/relax"
	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/graph"
	"gluon/internal/par"
	"gluon/internal/partition"
)

// Algorithm selects a built-in benchmark.
type Algorithm string

// The four benchmarks.
const (
	BFS  Algorithm = "bfs"
	CC   Algorithm = "cc"
	SSSP Algorithm = "sssp"
	PR   Algorithm = "pr"
)

// Config configures a baseline run.
type Config struct {
	Hosts   int
	Workers int // per-host worker count; 0 means GOMAXPROCS
	// Source for bfs/sssp (global ID).
	Source uint64
	// Tolerance and MaxIters for pr.
	Tolerance float64
	MaxIters  int
	// CollectValues gathers converged values into Result.Values.
	CollectValues bool
	// Net adds simulated link costs (same model as the Gluon systems use,
	// so timing comparisons are apples-to-apples).
	Net comm.NetModel
}

// Result reports a baseline run.
type Result struct {
	Algorithm      Algorithm
	NumHosts       int
	Rounds         int
	Time           time.Duration
	TotalCommBytes uint64
	Values         []float64
}

const (
	tagLabel comm.Tag = comm.TagUser + 100 // mirror→master label pairs
	tagBcast comm.Tag = comm.TagUser + 101 // master→mirror label pairs
	tagRank  comm.Tag = comm.TagUser + 103 // pr rank pairs
	tagDeg   comm.Tag = comm.TagUser + 104 // pr out-degree pairs
)

// Partition builds the baseline's chunked outgoing edge-cut partitions.
// Exposed so Table 2 can time it separately from execution.
func Partition(numNodes uint64, edges []graph.Edge, hosts int, outDeg []uint32) ([]*partition.Partition, error) {
	pol, err := partition.NewPolicy(partition.OEC, numNodes, hosts, partition.Options{OutDegrees: outDeg})
	if err != nil {
		return nil, err
	}
	return partition.PartitionAll(numNodes, edges, pol)
}

// Run partitions (edge-cut only) and executes the algorithm to convergence.
func Run(numNodes uint64, edges []graph.Edge, alg Algorithm, cfg Config) (*Result, error) {
	parts, err := Partition(numNodes, edges, cfg.Hosts, nil)
	if err != nil {
		return nil, err
	}
	return RunPartitioned(parts, alg, cfg)
}

// RunPartitioned executes over pre-built partitions.
func RunPartitioned(parts []*partition.Partition, alg Algorithm, cfg Config) (*Result, error) {
	hosts := len(parts)
	hub := comm.NewHubWithModel(hosts, cfg.Net)
	defer hub.Close()

	type hostOut struct {
		rounds int
		bytes  uint64
		values map[uint64]float64
		err    error
	}
	outs := make([]hostOut, hosts)
	var wg sync.WaitGroup
	start := time.Now()
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			e := &engine{p: parts[h], t: hub.Endpoint(h), workers: cfg.Workers}
			var rounds int
			var err error
			switch alg {
			case BFS:
				rounds, err = e.runLabelPropagation(relax.Hop, &cfg.Source)
			case CC:
				rounds, err = e.runLabelPropagation(relax.Same, nil)
			case SSSP:
				rounds, err = e.runLabelPropagation(relax.Weight, &cfg.Source)
			case PR:
				rounds, err = e.runPageRank(cfg.Tolerance, cfg.MaxIters)
			default:
				err = fmt.Errorf("gemini: unknown algorithm %q", alg)
			}
			if err != nil {
				outs[h].err = err
				return
			}
			outs[h].rounds = rounds
			outs[h].bytes = e.bytesSent
			if cfg.CollectValues {
				outs[h].values = e.collect()
			}
		}(h)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{Algorithm: alg, NumHosts: hosts, Time: elapsed}
	for h := range outs {
		if outs[h].err != nil {
			return nil, fmt.Errorf("gemini: host %d: %w", h, outs[h].err)
		}
		res.TotalCommBytes += outs[h].bytes
		if outs[h].rounds > res.Rounds {
			res.Rounds = outs[h].rounds
		}
	}
	if cfg.CollectValues {
		res.Values = make([]float64, parts[0].GlobalNodes)
		for h := range outs {
			for gid, v := range outs[h].values {
				res.Values[gid] = v
			}
		}
	}
	return res, nil
}

// engine is one host's integrated compute+comm state.
type engine struct {
	p       *partition.Partition
	t       comm.Transport
	workers int

	labels    []uint32  // bfs/cc/sssp
	ranks     []float64 // pr
	bytesSent uint64

	isPR bool
}

// ---- label-propagation family (bfs, cc, sssp) ----

// runLabelPropagation is the baseline's BSP loop: level-synchronous push
// rounds of the label family's operator (relax.Out — the baseline shares
// the operator with the Gluon systems, not their schedules and not their
// wire); after each round every updated label is sent as a (gid, value)
// pair — mirrors to masters, then masters re-broadcast to every peer that
// might hold a proxy (the integrated GAS discipline, no structural pruning).
// A nil source seeds every label with its global ID (cc).
func (e *engine) runLabelPropagation(step relax.Step, source *uint64) (int, error) {
	n := e.p.NumProxies()
	e.labels = make([]uint32, n)
	var frontier *bitset.Bitset
	if source == nil {
		frontier = relax.SeedIDs(e.labels, e.p.GID)
	} else {
		lid, ok := e.p.LID(*source)
		frontier = relax.SeedSource(e.labels, lid, ok)
	}
	if err := comm.Barrier(e.t); err != nil {
		return 0, err
	}
	rounds := 0
	for {
		updated := bitset.New(n)
		mark := updated.Set
		par.Range(int(n), e.workers, func(lo, hi int) {
			for u := frontier.NextSet(uint32(lo)); u < uint32(hi); u = frontier.NextSet(u + 1) {
				relax.Out(e.p.Graph, e.labels, u, step, mark)
			}
		})
		if err := e.syncLabels(updated); err != nil {
			return rounds, err
		}
		rounds++
		active, err := comm.AllReduceSum(e.t, uint64(updated.Count()))
		if err != nil {
			return rounds, err
		}
		if active == 0 {
			break
		}
		frontier = updated
	}
	return rounds, nil
}

// syncLabels performs the two GID-pair exchanges of one round.
func (e *engine) syncLabels(updated *bitset.Bitset) error {
	// Phase 1: mirrors send updated labels to the owner.
	if err := e.exchangeU32(updated, tagLabel, true); err != nil {
		return err
	}
	// Phase 2: masters broadcast updated labels to all other hosts
	// (the baseline does not know which hosts hold mirrors' structural
	// roles, so it sends to every host that holds any proxy of the node —
	// derived from a full mirror map exchange it performs lazily here by
	// sending to all peers).
	return e.exchangeU32(updated, tagBcast, false)
}

// exchangeU32 sends (gid,label) pairs for updated proxies of the given role
// to all peers and folds in what it receives (min).
func (e *engine) exchangeU32(updated *bitset.Bitset, tag comm.Tag, fromMirrors bool) error {
	me := e.t.HostID()
	hosts := e.t.NumHosts()
	// Build per-peer payloads.
	payloads := make([][]byte, hosts)
	for h := 0; h < hosts; h++ {
		if h == me {
			continue
		}
		var buf []byte
		count := uint32(0)
		hdr := make([]byte, 4)
		buf = append(buf, hdr...)
		appendPair := func(lid uint32) {
			var pair [12]byte
			binary.LittleEndian.PutUint64(pair[:], e.p.GID(lid))
			binary.LittleEndian.PutUint32(pair[8:], e.labels[lid])
			buf = append(buf, pair[:]...)
			count++
		}
		if fromMirrors {
			// Updated mirrors owned by h.
			for lid := e.p.NumMasters; lid < e.p.NumProxies(); lid++ {
				if updated.Test(lid) && e.p.Policy.Owner(e.p.GID(lid)) == h {
					appendPair(lid)
				}
			}
		} else {
			// Updated masters, to every peer.
			for lid := uint32(0); lid < e.p.NumMasters; lid++ {
				if updated.Test(lid) {
					appendPair(lid)
				}
			}
		}
		binary.LittleEndian.PutUint32(buf[:4], count)
		payloads[h] = buf
	}
	errc := make(chan error, 1)
	go func() {
		for h := 0; h < hosts; h++ {
			if h == me {
				continue
			}
			e.bytesSent += uint64(len(payloads[h]))
			if err := e.t.Send(h, tag, payloads[h]); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for h := 0; h < hosts; h++ {
		if h == me {
			continue
		}
		payload, err := e.t.Recv(h, tag)
		if err != nil {
			return err
		}
		cnt := binary.LittleEndian.Uint32(payload)
		off := 4
		for i := uint32(0); i < cnt; i++ {
			gid := binary.LittleEndian.Uint64(payload[off:])
			val := binary.LittleEndian.Uint32(payload[off+8:])
			off += 12
			if lid, ok := e.p.LID(gid); ok {
				if val < e.labels[lid] {
					e.labels[lid] = val
					updated.Set(lid)
				}
			}
		}
	}
	return <-errc
}

// ---- pagerank ----

// runPageRank is the baseline's pull pagerank with GID-pair communication.
func (e *engine) runPageRank(tol float64, maxIters int) (int, error) {
	if tol <= 0 {
		tol = 1e-6
	}
	if maxIters <= 0 {
		maxIters = 100
	}
	e.isPR = true
	n := e.p.NumProxies()
	const alpha = 0.85
	e.ranks = make([]float64, n)
	outdeg := make([]float64, n)
	contrib := make([]float64, n)
	for lid := uint32(0); lid < n; lid++ {
		outdeg[lid] = float64(e.p.Graph.OutDegree(lid))
		e.ranks[lid] = 1 - alpha
	}
	if err := comm.Barrier(e.t); err != nil {
		return 0, err
	}
	// Global out-degrees: mirrors send local degrees, masters sum and
	// re-broadcast — as GID pairs, of course.
	if err := e.exchangeF64(outdeg, tagDeg, sumFold, true); err != nil {
		return 0, err
	}
	if err := e.exchangeF64(outdeg, tagDeg, setFold, false); err != nil {
		return 0, err
	}

	in := e.p.InGraph()
	rounds := 0
	for iter := 0; iter < maxIters; iter++ {
		par.Range(int(n), e.workers, func(lo, hi int) {
			for v := uint32(lo); v < uint32(hi); v++ {
				var sum float64
				for _, u := range in.Neighbors(v) {
					if outdeg[u] > 0 {
						sum += e.ranks[u] / outdeg[u]
					}
				}
				contrib[v] = sum
			}
		})
		// Mirrors ship partial contributions to masters (sum-fold).
		if err := e.exchangeF64(contrib, tagRank, sumFold, true); err != nil {
			return rounds, err
		}
		var moved uint64
		for m := uint32(0); m < e.p.NumMasters; m++ {
			newRank := (1 - alpha) + alpha*contrib[m]
			if absF(newRank-e.ranks[m]) > tol {
				moved++
			}
			e.ranks[m] = newRank
		}
		// Masters broadcast new ranks.
		if err := e.exchangeF64(e.ranks, tagRank, setFold, false); err != nil {
			return rounds, err
		}
		for i := range contrib {
			contrib[i] = 0
		}
		rounds++
		global, err := comm.AllReduceSum(e.t, moved)
		if err != nil {
			return rounds, err
		}
		if global == 0 {
			break
		}
	}
	return rounds, nil
}

type foldF64 func(dst *float64, v float64)

func sumFold(dst *float64, v float64) { *dst += v }
func setFold(dst *float64, v float64) { *dst = v }

// exchangeF64 ships every relevant (gid, value) pair each round — the
// baseline sends unconditionally (no update tracking for floats).
func (e *engine) exchangeF64(vals []float64, tag comm.Tag, fold foldF64, fromMirrors bool) error {
	me := e.t.HostID()
	hosts := e.t.NumHosts()
	payloads := make([][]byte, hosts)
	for h := 0; h < hosts; h++ {
		if h == me {
			continue
		}
		var buf []byte
		count := uint32(0)
		buf = append(buf, 0, 0, 0, 0)
		appendPair := func(lid uint32) {
			var pair [16]byte
			binary.LittleEndian.PutUint64(pair[:], e.p.GID(lid))
			binary.LittleEndian.PutUint64(pair[8:], f64bits(vals[lid]))
			buf = append(buf, pair[:]...)
			count++
		}
		if fromMirrors {
			for lid := e.p.NumMasters; lid < e.p.NumProxies(); lid++ {
				if e.p.Policy.Owner(e.p.GID(lid)) == h {
					appendPair(lid)
				}
			}
		} else {
			for lid := uint32(0); lid < e.p.NumMasters; lid++ {
				appendPair(lid)
			}
		}
		binary.LittleEndian.PutUint32(buf[:4], count)
		payloads[h] = buf
	}
	errc := make(chan error, 1)
	go func() {
		for h := 0; h < hosts; h++ {
			if h == me {
				continue
			}
			e.bytesSent += uint64(len(payloads[h]))
			if err := e.t.Send(h, tag, payloads[h]); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for h := 0; h < hosts; h++ {
		if h == me {
			continue
		}
		payload, err := e.t.Recv(h, tag)
		if err != nil {
			return err
		}
		cnt := binary.LittleEndian.Uint32(payload)
		off := 4
		for i := uint32(0); i < cnt; i++ {
			gid := binary.LittleEndian.Uint64(payload[off:])
			v := f64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
			off += 16
			if lid, ok := e.p.LID(gid); ok {
				fold(&vals[lid], v)
			}
		}
	}
	return <-errc
}

// collect returns master values by global ID.
func (e *engine) collect() map[uint64]float64 {
	out := make(map[uint64]float64, e.p.NumMasters)
	for lid := uint32(0); lid < e.p.NumMasters; lid++ {
		if e.isPR {
			out[e.p.GID(lid)] = e.ranks[lid]
		} else {
			out[e.p.GID(lid)] = float64(e.labels[lid])
		}
	}
	return out
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func f64bits(f float64) uint64     { return math.Float64bits(f) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }
