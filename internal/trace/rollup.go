package trace

// The one fold. Every number the observability plane reports — the analyzer
// tables, the critical path and its ledger, the live counters — is a view
// of what this file accumulates from the event stream, so two reports of
// the same events cannot disagree (DESIGN.md §4.3, §4.8). Two tiers:
//
//   - Totals is the fixed-size tier: counts and sums that do not care which
//     host or round an event belongs to.
//   - Rollup adds the keyed tier — per round, per (round, host), per peer
//     pair, per (sender, peer, field) channel — and the incremental
//     critical-path attribution over it.
//
// Events reach the fold from Emit, from export files and from sideband
// peers, so the range checks on fields that index arrays live here, once.

import "sort"

// Bytes returns the event's total payload byte tag.
func (e *Event) Bytes() uint64 { return e.Value + e.Meta + e.GID }

// Totals is the allocation-free tier of the fold.
type Totals struct {
	events   uint64
	maxRound int32 // highest Round stamped on any event; -1 before the first
	phases   [NumPhases]phaseSum
	// Byte and mode tags count encode spans only: their tags are Stats
	// deltas, so the totals match the run's volume accounting. Other phases
	// reuse Value for wire lengths, which would double-count.
	value, meta, gid uint64
	modes            [NumModes]uint64
}

// phaseSum counts one phase's events and their summed duration.
type phaseSum struct {
	count uint64
	durNs int64
}

// add folds one event. It does not allocate.
func (t *Totals) add(e *Event) {
	t.events++
	if e.Round > t.maxRound {
		t.maxRound = e.Round
	}
	if e.Phase < NumPhases {
		t.phases[e.Phase].count++
		t.phases[e.Phase].durNs += e.Dur
	}
	if e.Phase != PhaseEncode {
		return
	}
	t.value += e.Value
	t.meta += e.Meta
	t.gid += e.GID
	if e.Mode >= 0 && e.Mode < NumModes {
		t.modes[e.Mode]++
	}
}

// chanStat accumulates one directed (sender, peer, field) channel.
type chanStat struct {
	msgs      uint64
	shipped   uint64
	capacity  uint64 // largest single message
	present   int    // distinct rounds with >= 1 message
	lastRound int32
}

type chanKey struct {
	host, peer int32
	field      uint32
}

// top2 tracks the two largest values added. A round's margin is its two
// latest arrivals' difference, and its clock bound the sum of its two
// largest uncertainties: comparing two aligned stamps is off by at most the
// sum of the two clocks' uncertainties.
type top2 struct{ a, b int64 }

func (t *top2) add(u int64) {
	if u >= t.a {
		t.a, t.b = u, t.a
	} else if u > t.b {
		t.b = u
	}
}

// entry returns m[k], inserting a zero value first when the key is new.
func entry[K comparable, V any](m map[K]*V, k K) (v *V, fresh bool) {
	if v = m[k]; v == nil {
		v, fresh = new(V), true
		m[k] = v
	}
	return v, fresh
}

// Rollup folds events into everything the reports need, incrementally: the
// collector feeds it batch by batch and reads the trailing verdicts for live
// viewers; offline callers feed a whole trace and Finish. It does no locking
// of its own — the collector guards its fold with the mutex it already has.
//
// Attribution follows a frontier: a round closes once every host known to
// emit spans has moved past it. Events that arrive for a closed round still
// count in the totals, the round row and the ledger channels, but never
// re-open its attribution.
type Rollup struct {
	totals Totals

	// Table tier: every event lands here, attributable or not.
	hosts            map[int32]struct{}
	rounds           map[int32]*RoundStat
	peers            map[[2]int32]*PeerStat
	channels         map[chanKey]*chanStat
	faults           []Event // aligned copies
	minStart, maxEnd int64   // aligned; valid once totals.events > 0

	// Attribution tier. open holds the rounds not yet closed — and the
	// negative (init/memoization) rounds forever: they are table rows with
	// time columns, never BSP rounds.
	open    map[int32]map[int32]*HostRound // round -> host -> accounting
	maxSeen map[int32]int32                // host -> newest round observed on a span
	unc     map[int32]int64                // host -> clock uncertainty, ns
	done    []RoundPath                    // closed rounds, ascending
	// floor is the lowest round not yet closed: events for earlier rounds
	// arriving late (a host's ring drained on a different cadence) must not
	// re-open a closed round and double-attribute it.
	floor int32
}

// NewRollup returns an empty fold.
func NewRollup() *Rollup {
	return &Rollup{
		totals:   Totals{maxRound: -1},
		hosts:    make(map[int32]struct{}),
		rounds:   make(map[int32]*RoundStat),
		peers:    make(map[[2]int32]*PeerStat),
		channels: make(map[chanKey]*chanStat),
		open:     make(map[int32]map[int32]*HostRound),
		maxSeen:  make(map[int32]int32),
		unc:      make(map[int32]int64),
	}
}

// rollupOf folds a whole trace offline. The events must share one time axis
// already — which both single-process exports and collector-merged exports
// do (the merge applies the sideband offsets); meta's clock table supplies
// the uncertainty bounds stamped on the verdicts.
func rollupOf(meta Meta, events []Event) *Rollup {
	r := NewRollup()
	for _, ci := range meta.Clocks {
		r.SetHostClock(ci.Host, ci.UncertaintyNs)
	}
	r.Add(events, 0)
	r.Finish()
	return r
}

// SetHostClock declares a host's clock-offset uncertainty (the ±bound the
// sideband measured). Hosts never declared count as exact (local hosts).
func (r *Rollup) SetHostClock(host int32, uncertaintyNs int64) { r.unc[host] = uncertaintyNs }

// Add folds a batch of one or more hosts' events, rebasing each start time
// by offsetNs onto the reference axis without touching the caller's copy,
// then closes every round all known hosts have moved past. Events of a given
// host must arrive in emission order (which rings, batches, and Snapshot all
// preserve).
func (r *Rollup) Add(events []Event, offsetNs int64) {
	r.fold(events, offsetNs)
	r.advance()
}

// fold is Add without closing rounds: the collector folds batches under a
// frontier hold and advances once nothing holds it.
func (r *Rollup) fold(events []Event, offsetNs int64) {
	for i := range events {
		r.add(&events[i], offsetNs)
	}
}

// spans reports whether any of hosts has folded a span.
func (r *Rollup) spans(hosts map[int32]struct{}) bool {
	for h := range hosts {
		if _, ok := r.maxSeen[h]; ok {
			return true
		}
	}
	return false
}

// advance closes every round all hosts known to emit spans have moved past.
func (r *Rollup) advance() {
	if len(r.maxSeen) == 0 {
		return
	}
	frontier := int32(1<<31 - 1)
	for _, seen := range r.maxSeen {
		frontier = min(frontier, seen)
	}
	r.closeBelow(frontier)
}

// Finish closes every open round — end of trace, nothing more coming.
func (r *Rollup) Finish() { r.closeBelow(1<<31 - 1) }

func (r *Rollup) add(e *Event, offsetNs int64) {
	r.totals.add(e)
	start := e.Start + offsetNs
	if r.totals.events == 1 {
		r.minStart, r.maxEnd = start, start
	}
	r.minStart = min(r.minStart, start)
	r.maxEnd = max(r.maxEnd, start+e.Dur)
	r.hosts[e.Host] = struct{}{}
	row, _ := entry(r.rounds, e.Round)
	row.Round = e.Round
	switch e.Phase {
	case PhaseEncode:
		row.Messages++
		row.Value += e.Value
		row.Meta += e.Meta
		row.GID += e.GID
		p, _ := entry(r.peers, [2]int32{e.Host, e.Peer})
		p.Host, p.Peer = e.Host, e.Peer
		p.Messages++
		p.Bytes += e.Bytes()
		if e.Round >= 0 { // the ledger's baseline is per BSP round
			r.channel(e)
		}
	case PhaseFault:
		f := *e
		f.Start = start
		r.faults = append(r.faults, f)
	}

	cp, ok := critOf(e.Phase)
	if !ok && e.Phase != PhaseSync {
		return // instants and ckpt spans don't attribute round time
	}
	if seen, known := r.maxSeen[e.Host]; !known || e.Round > seen {
		r.maxSeen[e.Host] = e.Round
	}
	if e.Round >= 0 && e.Round < r.floor {
		return // round already closed; too late to attribute
	}
	if r.open[e.Round] == nil {
		r.open[e.Round] = make(map[int32]*HostRound)
	}
	hr, fresh := entry(r.open[e.Round], e.Host)
	if fresh {
		hr.Host, hr.StartNs, hr.EndNs = e.Host, start, start
	}
	hr.StartNs = min(hr.StartNs, start)
	hr.EndNs = max(hr.EndNs, start+e.Dur)
	if ok {
		// PhaseSync has no taxonomy bucket of its own — its interior
		// (encode/wire/recvwait/fold/apply) is what attributes.
		hr.SubNs[cp] += e.Dur
	}
	// The round row's time columns are maxima across hosts of each host's
	// summed driver segments (the paper's max-across-hosts breakdown); the
	// sums only grow, so the running maximum is the maximum.
	switch e.Phase {
	case PhaseCompute:
		hr.ComputeNs += e.Dur
		row.ComputeNs = max(row.ComputeNs, hr.ComputeNs)
		// A compute run while the previous round's verdict was in flight
		// covers part of that barrier: only the rest is straggler wait.
		if prev := r.open[e.Round-1][e.Host]; prev != nil && prev.arrived {
			prev.SubNs[CritWait] -= max(0, min(start+e.Dur, prev.EndNs)-max(start, prev.ArriveNs))
		}
	case PhaseSync:
		hr.SyncNs += e.Dur
		row.SyncNs = max(row.SyncNs, hr.SyncNs)
	case PhaseBarrier:
		hr.BarrierNs += e.Dur
		row.BarrierNs = max(row.BarrierNs, hr.BarrierNs)
		if !hr.arrived || start < hr.ArriveNs {
			hr.ArriveNs = start
		}
		hr.arrived = true
	case PhaseEncode:
		hr.Bytes += e.Bytes()
	}
}

// channel folds one encode span into its (sender, peer, field) channel.
func (r *Rollup) channel(e *Event) {
	cs, fresh := entry(r.channels, chanKey{host: e.Host, peer: e.Peer, field: e.Field})
	if fresh {
		cs.lastRound = -1
	}
	n := e.Bytes()
	cs.msgs++
	cs.shipped += n
	cs.capacity = max(cs.capacity, n)
	if e.Round != cs.lastRound {
		cs.present++
		cs.lastRound = e.Round
	}
}

// closeBelow attributes every open BSP round below frontier, ascending.
func (r *Rollup) closeBelow(frontier int32) {
	var ready []int32
	for round := range r.open {
		if round >= 0 && round < frontier {
			ready = append(ready, round)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, round := range ready {
		r.done = append(r.done, r.attribute(round, r.open[round]))
		delete(r.open, round)
		r.floor = max(r.floor, round+1)
	}
}

// attribute names the host and phase that gated one round.
func (r *Rollup) attribute(round int32, hosts map[int32]*HostRound) RoundPath {
	rp := RoundPath{Round: round}
	var minStart, maxEnd int64
	var unc top2
	for h, hr := range hosts {
		if len(rp.Hosts) == 0 {
			minStart, maxEnd = hr.StartNs, hr.EndNs
		}
		rp.Hosts = append(rp.Hosts, *hr)
		minStart = min(minStart, hr.StartNs)
		maxEnd = max(maxEnd, hr.EndNs)
		unc.add(r.unc[h])
	}
	sort.Slice(rp.Hosts, func(i, j int) bool { return rp.Hosts[i].Host < rp.Hosts[j].Host })
	rp.WallNs = maxEnd - minStart
	rp.UncertaintyNs = unc.a + unc.b
	// Gate: last barrier arrival (latest recorded activity when no host
	// recorded a barrier — a truncated tail round).
	arrive := func(hr *HostRound) int64 {
		if hr.arrived {
			return hr.ArriveNs
		}
		return hr.EndNs
	}
	var gate *HostRound
	var arrivals top2
	for i := range rp.Hosts {
		hr := &rp.Hosts[i]
		if gate == nil || arrive(hr) > arrive(gate) {
			gate = hr
		}
		arrivals.add(arrive(hr))
	}
	rp.Gate = gate.Host
	if len(rp.Hosts) > 1 {
		rp.MarginNs = arrivals.a - arrivals.b
	}
	// Gating phase: the gate's largest taxonomy bucket.
	for cp := CritPhase(0); cp < NumCritPhases; cp++ {
		if gate.SubNs[cp] > gate.SubNs[rp.GatePhase] {
			rp.GatePhase = cp
		}
	}
	return rp
}

// Summary renders the analyzer tables, carrying the export metadata (label,
// dropped count, clock table, sessions) through for display.
func (r *Rollup) Summary(meta Meta) *Summary {
	t := &r.totals
	s := &Summary{Label: meta.Label, Events: int(t.events), Dropped: meta.Dropped, Clocks: meta.Clocks, Sessions: meta.Sessions}
	if t.events == 0 {
		return s
	}
	s.Hosts = len(r.hosts)
	s.WallNs = r.maxEnd - r.minStart
	s.Messages = t.phases[PhaseEncode].count
	s.ValueBytes, s.MetaBytes, s.GIDBytes = t.value, t.meta, t.gid
	s.Modes = t.modes
	for _, row := range r.rounds {
		s.Rounds = append(s.Rounds, *row)
	}
	sort.Slice(s.Rounds, func(i, j int) bool { return s.Rounds[i].Round < s.Rounds[j].Round })
	for p, pl := range t.phases {
		if pl.count > 0 {
			s.Phases = append(s.Phases, PhaseStat{Phase: Phase(p), Count: pl.count, TotalNs: pl.durNs})
		}
	}
	for _, p := range r.peers {
		s.Peers = append(s.Peers, *p)
	}
	// The peer table is a skew table: the point is the heaviest channels, so
	// sort by volume descending (rank order buries the outliers on wide
	// clusters); ties fall back to (host, peer) for determinism.
	sort.Slice(s.Peers, func(i, j int) bool {
		if s.Peers[i].Bytes != s.Peers[j].Bytes {
			return s.Peers[i].Bytes > s.Peers[j].Bytes
		}
		if s.Peers[i].Host != s.Peers[j].Host {
			return s.Peers[i].Host < s.Peers[j].Host
		}
		return s.Peers[i].Peer < s.Peers[j].Peer
	})
	s.Faults = append([]Event(nil), r.faults...)
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].Start < s.Faults[j].Start })
	return s
}

// CriticalPath renders the attribution of the rounds closed so far: who
// gates and doing what, each host's cumulative taxonomy time, the ledger,
// and the newest tail closed rounds (all of them when tail <= 0).
func (r *Rollup) CriticalPath(label string, tail int) *CriticalPath {
	cp := &CriticalPath{Label: label, Verdict: Verdict{Rounds: len(r.done)}, Ledger: r.ledger()}
	var unc top2
	for _, u := range r.unc {
		unc.add(u)
	}
	cp.UncertaintyNs = unc.a + unc.b
	gates := map[int32]*GateCount{}
	sums := map[int32]*HostPhaseSum{}
	for i := range r.done {
		rp := &r.done[i]
		g, fresh := entry(gates, rp.Gate)
		if fresh {
			g.Host, g.Phases = rp.Gate, map[string]int{}
		}
		g.Count++
		g.Phases[rp.GatePhase.String()]++
		for j := range rp.Hosts {
			hr := &rp.Hosts[j]
			sum, _ := entry(sums, hr.Host)
			sum.Host = hr.Host
			sum.Rounds++
			sum.Bytes += hr.Bytes
			for ph := range sum.SubNs {
				sum.SubNs[ph] += hr.SubNs[ph]
			}
		}
	}
	for _, g := range gates {
		cp.Verdict.Gates = append(cp.Verdict.Gates, *g)
	}
	sort.Slice(cp.Verdict.Gates, func(i, j int) bool {
		a, b := &cp.Verdict.Gates[i], &cp.Verdict.Gates[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Host < b.Host
	})
	for _, sum := range sums {
		cp.Hosts = append(cp.Hosts, *sum)
	}
	sort.Slice(cp.Hosts, func(i, j int) bool { return cp.Hosts[i].Host < cp.Hosts[j].Host })
	if tail <= 0 || tail > len(r.done) {
		tail = len(r.done)
	}
	cp.Rounds = append([]RoundPath(nil), r.done[len(r.done)-tail:]...)
	return cp
}

// ledger computes the effectiveness model over the rounds closed so far. In
// live use the channel capacities are still evolving, so early snapshots
// under-estimate the baseline; the offline path (Finish first) is exact for
// the model.
func (r *Rollup) ledger() Ledger {
	l := Ledger{Rounds: len(r.done), Channels: len(r.channels)}
	rounds := uint64(len(r.done))
	for _, cs := range r.channels {
		l.Messages += cs.msgs
		l.ShippedBytes += cs.shipped
		l.SparsitySavedBytes += cs.capacity*cs.msgs - cs.shipped
		present := min(uint64(cs.present), rounds) // messages of rounds not yet closed
		silent := rounds - present
		l.SilentChannelRounds += silent
		l.InvariantSavedBytes += silent * cs.capacity
	}
	l.BaselineBytes = l.ShippedBytes + l.SparsitySavedBytes + l.InvariantSavedBytes
	if sendNs := r.totals.phases[PhaseSend].durNs; l.ShippedBytes > 0 && sendNs > 0 {
		l.WireNsPerByte = float64(sendNs) / float64(l.ShippedBytes)
	}
	return l
}

// SummarizeMeta rolls events up into a Summary, carrying the export metadata
// (label, dropped count, clock table) through for display.
func SummarizeMeta(meta Meta, events []Event) *Summary {
	return rollupOf(meta, events).Summary(meta)
}

// ComputeCriticalPath attributes a full trace offline.
func ComputeCriticalPath(meta Meta, events []Event) *CriticalPath {
	return rollupOf(meta, events).CriticalPath(meta.Label, 0)
}
