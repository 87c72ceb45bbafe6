package trace

// Critical-path attribution. A BSP round ends when the last host arrives at
// the termination all-reduce — so the round's wall time is set by exactly
// one host, and within that host by whichever phase dominated its path to
// the barrier. The per-round and per-phase tables (analyze.go) show *sums*;
// they cannot answer the operator's actual question: "which host gated this
// round, and was it computing, encoding, on the wire, or waiting?" This
// file answers it from the spans the substrate already emits.
//
// Model (DESIGN.md §4.8):
//
//   - All events are first rebased onto one clock axis (the collector's,
//     via the sideband offsets; a single-process trace is already on one
//     axis). Comparing two hosts' aligned timestamps is then correct to
//     within the sum of their offset uncertainties; every verdict carries
//     that bound.
//   - Per (host, round) the driver emits three spans in order — compute,
//     sync, barrier — that never overlap each other. The barrier runs from
//     posting the termination count to the verdict, and the host computes
//     the next round while it waits, so round r+1's compute span lies
//     inside round r's barrier (and is emitted, stamped r+1, only once the
//     verdict confirms the round). The three spans therefore tile the
//     host's round wall except for the rest of the previous verdict wait
//     after an early compute. The gating host is the one whose barrier
//     span *starts* last (the last arrival); its margin is how much later
//     it arrived than the runner-up.
//   - The gating phase refines the verdict with the sync sub-phase sums
//     (encode / wire / recvwait / fold / apply, plus compute and the
//     barrier's straggler-wait): the largest bucket on the gating host's
//     path. The straggler-wait bucket is the barrier minus the part the
//     host's next compute covers. Encode/wire run on parallel worker lanes,
//     so those buckets are worker time, not wall time — good enough for
//     dominance, and stated as such.
//
// The optimization-effectiveness ledger models what the paper's Figure 10
// measures between configurations, from one run's trace alone: for every
// directed (sender, peer, field) channel, the dense capacity is estimated
// as the largest single message ever observed on it; a naive substrate
// would broadcast that much on every channel every round. The gap to the
// bytes actually shipped splits into update-mask sparsity (messages smaller
// than the channel capacity) and invariant/empty-round skips (rounds where
// a known channel shipped nothing). Channels eliminated *entirely* by
// structural invariants never appear in a trace, so the model undercounts
// those — the caveat is printed with the table.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// CritPhase is the attribution taxonomy: where a gating host's round went.
type CritPhase uint8

const (
	CritCompute CritPhase = iota
	CritEncode
	CritWire
	CritRecvWait
	CritFold
	CritApply
	// CritWait is the straggler wait: time parked in the termination
	// barrier behind slower hosts, not covered by the next round's compute.
	CritWait
	NumCritPhases
)

var critNames = [NumCritPhases]string{
	"compute", "encode", "wire", "recvwait", "fold", "apply", "straggler-wait",
}

// String returns the taxonomy name used in tables and JSON.
func (c CritPhase) String() string {
	if c < NumCritPhases {
		return critNames[c]
	}
	return "unknown"
}

// MarshalJSON writes the name, as Phase does.
func (c CritPhase) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON accepts a name or raw number, as Phase does.
func (c *CritPhase) UnmarshalJSON(b []byte) error { return unmarshalName(b, critNames[:], (*uint8)(c)) }

// critOf maps a span phase into the attribution taxonomy.
func critOf(p Phase) (CritPhase, bool) {
	switch p {
	case PhaseCompute:
		return CritCompute, true
	case PhaseEncode:
		return CritEncode, true
	case PhaseSend:
		return CritWire, true
	case PhaseRecvWait:
		return CritRecvWait, true
	case PhaseFold:
		return CritFold, true
	case PhaseApply:
		return CritApply, true
	case PhaseBarrier:
		return CritWait, true
	}
	return NumCritPhases, false
}

// HostRound is one host's accounting of one BSP round, on the aligned axis.
type HostRound struct {
	Host int32 `json:"host"`
	// StartNs/EndNs bound the host's recorded activity in the round.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// ArriveNs is when the host reached the termination barrier (the start
	// of its barrier span); EndNs when no barrier span was recorded.
	ArriveNs int64 `json:"arrive_ns"`
	// ComputeNs/SyncNs/BarrierNs are the sequential driver segments (see
	// the model above for how they cover the host's round wall time).
	ComputeNs int64 `json:"compute_ns"`
	SyncNs    int64 `json:"sync_ns"`
	BarrierNs int64 `json:"barrier_ns"`
	// SubNs are the taxonomy sums, indexed by CritPhase. Encode/wire are
	// summed worker-lane time and may exceed the wall segments.
	SubNs [NumCritPhases]int64 `json:"sub_ns"`
	// Bytes is the round's encode payload volume sent by this host.
	Bytes uint64 `json:"bytes"`

	arrived bool
}

// RoundPath is one round's critical-path verdict.
type RoundPath struct {
	Round int32 `json:"round"`
	// WallNs spans the earliest host activity to the latest, aligned.
	WallNs int64 `json:"wall_ns"`
	// UncertaintyNs bounds cross-host timestamp comparison for this round:
	// the two largest per-host clock uncertainties, summed.
	UncertaintyNs int64 `json:"uncertainty_ns,omitempty"`
	// Gate is the host whose barrier arrival came last; GatePhase the
	// largest bucket on its path; MarginNs its lead over the runner-up
	// (a margin below UncertaintyNs means the verdict is a coin toss).
	Gate      int32       `json:"gate"`
	GatePhase CritPhase   `json:"gate_phase"`
	MarginNs  int64       `json:"margin_ns"`
	Hosts     []HostRound `json:"hosts"`
}

// HostPath returns h's accounting, nil when the host is absent.
func (r *RoundPath) HostPath(h int32) *HostRound {
	for i := range r.Hosts {
		if r.Hosts[i].Host == h {
			return &r.Hosts[i]
		}
	}
	return nil
}

// Residual is the round wall time not explained by the gating host's
// sequential segments. |Residual| should stay within UncertaintyNs plus
// scheduling noise; a large residual means the trace is missing spans
// (ring overwrites) or the clocks disagree beyond their declared bounds.
func (r *RoundPath) Residual() int64 {
	g := r.HostPath(r.Gate)
	if g == nil {
		return r.WallNs
	}
	return r.WallNs - (g.ComputeNs + g.SyncNs + g.BarrierNs)
}

// GateCount is one host's share of the gating verdicts.
type GateCount struct {
	Host   int32          `json:"host"`
	Count  int            `json:"count"`
	Phases map[string]int `json:"phases,omitempty"`
}

// Verdict is the rolling cluster-level summary: who gates, doing what.
type Verdict struct {
	Rounds int         `json:"rounds"`
	Gates  []GateCount `json:"gates,omitempty"` // descending by Count
}

// String renders the one-line verdict gluon-trace top shows.
func (v Verdict) String() string {
	if v.Rounds == 0 || len(v.Gates) == 0 {
		return "no rounds attributed yet"
	}
	g := v.Gates[0]
	top, topN := "", 0
	for ph, n := range g.Phases {
		if n > topN || (n == topN && ph < top) {
			top, topN = ph, n
		}
	}
	return fmt.Sprintf("host %d gated %d/%d rounds, mostly %s", g.Host, g.Count, v.Rounds, top)
}

// HostPhaseSum is one host's cumulative taxonomy time over attributed
// rounds — the phase-breakdown bar gluon-trace top renders per host.
type HostPhaseSum struct {
	Host   int32                `json:"host"`
	Rounds int                  `json:"rounds"`
	SubNs  [NumCritPhases]int64 `json:"sub_ns"`
	Bytes  uint64               `json:"bytes"`
}

// TotalNs sums the host's buckets.
func (h *HostPhaseSum) TotalNs() int64 {
	var t int64
	for _, d := range h.SubNs {
		t += d
	}
	return t
}

// Ledger is the optimization-effectiveness model: bytes actually shipped
// against a modeled naive dense broadcast, split by mechanism.
type Ledger struct {
	// Rounds is the number of attributed rounds the baseline covers;
	// Channels the number of distinct (sender, peer, field) channels seen.
	Rounds   int    `json:"rounds"`
	Channels int    `json:"channels"`
	Messages uint64 `json:"messages"`
	// ShippedBytes went on the wire.
	ShippedBytes uint64 `json:"shipped_bytes"`
	// BaselineBytes is the modeled naive volume: every channel shipping its
	// dense capacity every round. The split below accounts the difference.
	BaselineBytes uint64 `json:"baseline_bytes"`
	// SparsitySavedBytes: messages smaller than their channel's capacity
	// (update-mask sparsity and the bitvec/indices/gid encodings).
	SparsitySavedBytes uint64 `json:"sparsity_saved_bytes"`
	// InvariantSavedBytes: rounds where a known channel shipped nothing
	// (temporal invariance, empty updates). SilentChannelRounds counts them.
	InvariantSavedBytes uint64 `json:"invariant_saved_bytes"`
	SilentChannelRounds uint64 `json:"silent_channel_rounds"`
	// WireNsPerByte is the observed send cost (Σ send-span ns / Σ shipped
	// bytes), the rate behind the modeled sync-time savings; 0 = unknown.
	WireNsPerByte float64 `json:"wire_ns_per_byte,omitempty"`
}

// SavedNs models the sync time a byte saving is worth at the observed wire
// rate (0 when the trace recorded no send spans).
func (l *Ledger) SavedNs(bytes uint64) int64 {
	return int64(l.WireNsPerByte * float64(bytes))
}

// CriticalPath is the full offline attribution of a trace.
type CriticalPath struct {
	Label string `json:"label,omitempty"`
	// UncertaintyNs is the worst cross-host comparison bound (see RoundPath).
	UncertaintyNs int64          `json:"uncertainty_ns,omitempty"`
	Rounds        []RoundPath    `json:"rounds"`
	Hosts         []HostPhaseSum `json:"hosts,omitempty"`
	Verdict       Verdict        `json:"verdict"`
	Ledger        Ledger         `json:"ledger"`
}

// WriteTables prints the attribution the way gluon-trace critical shows it.
func (cp *CriticalPath) WriteTables(w io.Writer) error {
	label := cp.Label
	if label != "" {
		label = " (" + label + ")"
	}
	if _, err := fmt.Fprintf(w, "critical path%s: %d attributed rounds, %d hosts, clock bound ±%v\n",
		label, len(cp.Rounds), len(cp.Hosts), round3(time.Duration(cp.UncertaintyNs))); err != nil {
		return err
	}
	if len(cp.Rounds) > 0 {
		fmt.Fprintf(w, "%6s %12s %6s %-15s %12s %12s %12s %12s %12s\n",
			"round", "wall", "gate", "gate-phase", "margin", "compute", "sync", "wait", "residual")
		for i := range cp.Rounds {
			r := &cp.Rounds[i]
			g := r.HostPath(r.Gate)
			var comp, syn, wait time.Duration
			if g != nil {
				comp, syn, wait = time.Duration(g.ComputeNs), time.Duration(g.SyncNs), time.Duration(g.BarrierNs)
			}
			fmt.Fprintf(w, "%6d %12v %6s %-15s %12v %12v %12v %12v %+12v\n",
				r.Round, round3(time.Duration(r.WallNs)), fmt.Sprintf("h%d", r.Gate), r.GatePhase,
				round3(time.Duration(r.MarginNs)), round3(comp), round3(syn), round3(wait),
				round3(time.Duration(r.Residual())))
		}
		fmt.Fprintln(w)
	}
	if len(cp.Hosts) > 0 {
		fmt.Fprintln(w, "per-host path breakdown (worker-lane sums over attributed rounds):")
		fmt.Fprintf(w, "%6s %10s", "host", "bytes")
		for cpx := CritPhase(0); cpx < NumCritPhases; cpx++ {
			fmt.Fprintf(w, " %14s", cpx)
		}
		fmt.Fprintln(w)
		for i := range cp.Hosts {
			h := &cp.Hosts[i]
			fmt.Fprintf(w, "%6d %10s", h.Host, FmtBytes(h.Bytes))
			for cpx := CritPhase(0); cpx < NumCritPhases; cpx++ {
				fmt.Fprintf(w, " %14v", round3(time.Duration(h.SubNs[cpx])))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	if v := cp.Verdict; len(v.Gates) > 0 {
		fmt.Fprint(w, "gating verdict:")
		for _, g := range v.Gates {
			fmt.Fprintf(w, " host %d ×%d (%s);", g.Host, g.Count, phaseCountList(g.Phases))
		}
		fmt.Fprintf(w, " — %s\n\n", v.String())
	}
	return cp.Ledger.WriteTable(w)
}

// phaseCountList renders a phase histogram compactly, largest first.
func phaseCountList(phases map[string]int) string {
	type pc struct {
		name string
		n    int
	}
	list := make([]pc, 0, len(phases))
	for n, c := range phases {
		list = append(list, pc{n, c})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].name < list[j].name
	})
	s := ""
	for i, p := range list {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s ×%d", p.name, p.n)
	}
	return s
}

// WriteTable prints the paper-style "sync volume/time saved by optimization
// X" ledger.
func (l *Ledger) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "optimization ledger (modeled vs naive dense broadcast, %d channels × %d rounds):\n",
		l.Channels, l.Rounds); err != nil {
		return err
	}
	rate := ""
	if l.WireNsPerByte > 0 {
		rate = fmt.Sprintf("   (wire observed at %.1fns/B)", l.WireNsPerByte)
	}
	fmt.Fprintf(w, "  %-28s %10s%s\n", "shipped on the wire", FmtBytes(l.ShippedBytes), rate)
	fmt.Fprintf(w, "  %-28s %10s\n", "naive-broadcast baseline", FmtBytes(l.BaselineBytes))
	row := func(name string, bytes uint64, extra string) {
		saved := ""
		if l.WireNsPerByte > 0 {
			saved = fmt.Sprintf("   (~%v sync time)", round3(time.Duration(l.SavedNs(bytes))))
		}
		fmt.Fprintf(w, "  %-28s %10s%s%s\n", name, FmtBytes(bytes), saved, extra)
	}
	row("saved by update sparsity", l.SparsitySavedBytes, "")
	row("saved by invariant skips", l.InvariantSavedBytes,
		fmt.Sprintf("   [%d silent channel-rounds]", l.SilentChannelRounds))
	fmt.Fprintln(w, "  (channels structurally elided never appear in a trace; the model undercounts those)")
	return nil
}
