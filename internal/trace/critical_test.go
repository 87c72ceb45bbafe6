package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// synthRound appends one host's spans for one round: sequential compute /
// sync / barrier on lane 0 (tiling [start, start+compute+sync+barrier]),
// with the sync interior split across the taxonomy sub-phases.
type synthRound struct {
	host    int32
	round   int32
	start   int64
	compute int64
	// sync interior, all on worker/receiver lanes inside the sync span
	encode, wire, recvwait, fold, apply int64
	barrier                             int64
	// one encode message host -> peer with these byte tags
	peer  int32
	value uint64
}

func (s synthRound) events() []Event {
	syncDur := s.encode + s.wire + s.recvwait + s.fold + s.apply
	t := s.start
	ev := []Event{
		{Start: t, Dur: s.compute, Host: s.host, Round: s.round, Phase: PhaseCompute, Peer: -1},
		{Start: t + s.compute, Dur: syncDur, Host: s.host, Round: s.round, Phase: PhaseSync, Peer: -1},
	}
	u := t + s.compute
	add := func(ph Phase, dur int64, lane int32) {
		if dur == 0 {
			return
		}
		e := Event{Start: u, Dur: dur, Host: s.host, Round: s.round, Phase: ph, Peer: s.peer, Lane: lane}
		if ph == PhaseEncode {
			e.Value, e.Mode = s.value, 1
		}
		ev = append(ev, e)
		u += dur
	}
	add(PhaseEncode, s.encode, 1)
	add(PhaseSend, s.wire, 1)
	add(PhaseRecvWait, s.recvwait, 0)
	add(PhaseFold, s.fold, 0)
	add(PhaseApply, s.apply, 0)
	ev = append(ev, Event{Start: t + s.compute + syncDur, Dur: s.barrier,
		Host: s.host, Round: s.round, Phase: PhaseBarrier, Peer: -1, Detail: "termination"})
	return ev
}

// goldenTimeline is a hand-built 3-host, 2-round cluster with known gating:
// round 0 is gated by host 2 (recv-wait dominated), round 1 by host 0
// (compute dominated). All hosts share one clock (offsets 0).
func goldenTimeline() []Event {
	rounds := []synthRound{
		// round 0: everyone [0, 1000]
		{host: 0, round: 0, start: 0, compute: 100, encode: 20, wire: 10, recvwait: 10, fold: 5, apply: 5, barrier: 850, peer: 1, value: 200},
		{host: 1, round: 0, start: 0, compute: 600, encode: 40, wire: 20, recvwait: 20, fold: 10, apply: 10, barrier: 300, peer: 2, value: 150},
		{host: 2, round: 0, start: 0, compute: 200, encode: 50, wire: 30, recvwait: 500, fold: 80, apply: 40, barrier: 100, peer: 0, value: 100},
		// round 1: everyone [1000, 2000]
		{host: 0, round: 1, start: 1000, compute: 800, encode: 30, wire: 20, recvwait: 30, fold: 10, apply: 10, barrier: 100, peer: 1, value: 120},
		{host: 1, round: 1, start: 1000, compute: 100, encode: 20, wire: 10, recvwait: 10, fold: 5, apply: 5, barrier: 850, peer: 2, value: 80},
		{host: 2, round: 1, start: 1000, compute: 300, encode: 40, wire: 20, recvwait: 20, fold: 10, apply: 10, barrier: 600, peer: 0, value: 60},
	}
	var ev []Event
	for _, r := range rounds {
		ev = append(ev, r.events()...)
	}
	return ev
}

// TestCriticalPathGolden pins the attribution of the hand-built timeline:
// gate host, gate phase, margin, wall, and a zero residual (the synthetic
// spans tile perfectly and share one clock).
func TestCriticalPathGolden(t *testing.T) {
	cp := ComputeCriticalPath(Meta{Label: "golden"}, goldenTimeline())
	if len(cp.Rounds) != 2 {
		t.Fatalf("attributed %d rounds, want 2", len(cp.Rounds))
	}
	want := []struct {
		gate   int32
		phase  CritPhase
		wall   int64
		margin int64
	}{
		// r0: arrivals at 150 (h0), 700 (h1), 900 (h2) -> gate h2, margin 200,
		// recv-wait (500) dominates its buckets.
		{gate: 2, phase: CritRecvWait, wall: 1000, margin: 200},
		// r1: arrivals at 1900 (h0), 1150 (h1), 1400 (h2) -> gate h0, margin
		// 500, compute (800) dominates.
		{gate: 0, phase: CritCompute, wall: 1000, margin: 500},
	}
	for i, w := range want {
		r := &cp.Rounds[i]
		if r.Round != int32(i) {
			t.Fatalf("rounds out of order: got %d at index %d", r.Round, i)
		}
		if r.Gate != w.gate || r.GatePhase != w.phase {
			t.Errorf("round %d: gate = host %d/%v, want host %d/%v", i, r.Gate, r.GatePhase, w.gate, w.phase)
		}
		if r.WallNs != w.wall {
			t.Errorf("round %d: wall = %d, want %d", i, r.WallNs, w.wall)
		}
		if r.MarginNs != w.margin {
			t.Errorf("round %d: margin = %d, want %d", i, r.MarginNs, w.margin)
		}
		// Acceptance criterion: the gating host's sequential phases sum to
		// the round wall time (exactly, on a shared clock).
		if res := r.Residual(); res != 0 {
			t.Errorf("round %d: residual = %d, want 0", i, res)
		}
		if len(r.Hosts) != 3 {
			t.Errorf("round %d: %d hosts, want 3", i, len(r.Hosts))
		}
	}
	v := cp.Verdict
	if v.Rounds != 2 || len(v.Gates) != 2 {
		t.Fatalf("verdict = %+v, want 2 rounds over 2 gates", v)
	}
	// Equal counts break ties by host: host 0 leads.
	if v.Gates[0].Host != 0 || v.Gates[0].Count != 1 || v.Gates[0].Phases["compute"] != 1 {
		t.Fatalf("verdict gates[0] = %+v", v.Gates[0])
	}
	if got := v.String(); !strings.Contains(got, "host 0") || !strings.Contains(got, "1/2") {
		t.Fatalf("verdict string = %q", got)
	}
}

// TestCriticalLedgerModel pins the naive-broadcast decomposition: with every
// channel's capacity known, baseline == capacity × rounds summed over
// channels, and shipped + sparsity + invariant == baseline.
func TestCriticalLedgerModel(t *testing.T) {
	cp := ComputeCriticalPath(Meta{}, goldenTimeline())
	l := cp.Ledger
	if l.Rounds != 2 {
		t.Fatalf("ledger rounds = %d, want 2", l.Rounds)
	}
	// Each host sends to a fixed peer on field 0 in both rounds: channels
	// h0->1, h1->2, h2->0, two messages each.
	if l.Channels != 3 || l.Messages != 6 {
		t.Fatalf("ledger channels/messages = %d/%d, want 3/6", l.Channels, l.Messages)
	}
	wantShipped := uint64(200 + 150 + 100 + 120 + 80 + 60)
	if l.ShippedBytes != wantShipped {
		t.Fatalf("shipped = %d, want %d", l.ShippedBytes, wantShipped)
	}
	// Capacities (largest message per channel): h0->1: max(200,120)=200;
	// h1->2: max(150,80)=150; h2->0: max(100,60)=100. All channels present
	// both rounds => no invariant savings; baseline = sum of caps × 2 rounds.
	if l.SilentChannelRounds != 0 || l.InvariantSavedBytes != 0 {
		t.Fatalf("invariant = %d bytes / %d silent rounds, want 0/0", l.InvariantSavedBytes, l.SilentChannelRounds)
	}
	wantBaseline := uint64((200 + 150 + 100) * 2)
	if l.BaselineBytes != wantBaseline {
		t.Fatalf("baseline = %d, want %d (sum of caps × rounds)", l.BaselineBytes, wantBaseline)
	}
	if got := l.ShippedBytes + l.SparsitySavedBytes + l.InvariantSavedBytes; got != l.BaselineBytes {
		t.Fatalf("ledger does not decompose: %d != baseline %d", got, l.BaselineBytes)
	}
	if l.WireNsPerByte <= 0 {
		t.Fatalf("wire rate = %v, want > 0 (send spans present)", l.WireNsPerByte)
	}
}

// TestCriticalLedgerInvariantSkips: a channel silent in one of two rounds is
// charged one round of its capacity as invariant savings.
func TestCriticalLedgerInvariantSkips(t *testing.T) {
	ev := goldenTimeline()
	// Add a 4th channel h0 -> 2 (field 7) that only ships in round 0.
	ev = append(ev, Event{Start: 120, Dur: 5, Host: 0, Round: 0, Phase: PhaseEncode,
		Peer: 2, Field: 7, Lane: 2, Value: 500, Mode: 1})
	cp := ComputeCriticalPath(Meta{}, ev)
	l := cp.Ledger
	if l.Channels != 4 {
		t.Fatalf("channels = %d, want 4", l.Channels)
	}
	if l.SilentChannelRounds != 1 {
		t.Fatalf("silent channel-rounds = %d, want 1", l.SilentChannelRounds)
	}
	if l.InvariantSavedBytes != 500 {
		t.Fatalf("invariant saved = %d, want 500 (one skipped round at cap)", l.InvariantSavedBytes)
	}
}

// TestCriticalFinalizeFrontier: a round only finalizes once every known host
// has moved past it, and late events for a finalized round are dropped
// rather than double-attributed.
func TestCriticalFinalizeFrontier(t *testing.T) {
	b := NewRollup()
	mk := func(h, r int32, start int64) []Event {
		return synthRound{host: h, round: r, start: start, compute: 10, barrier: 10, peer: 1 - h}.events()
	}
	// Two hosts in round 0: nothing can finalize yet.
	b.Add(mk(0, 0, 0), 0)
	b.Add(mk(1, 0, 5), 0)
	if n := len(b.CriticalPath("", 0).Rounds); n != 0 {
		t.Fatalf("finalized %d rounds before any host left round 0", n)
	}
	// Host 0 advances alone: host 1 still holds round 0 open.
	b.Add(mk(0, 1, 100), 0)
	if n := len(b.CriticalPath("", 0).Rounds); n != 0 {
		t.Fatalf("finalized %d rounds while host 1 is still in round 0", n)
	}
	// Host 1 advances too: round 0 closes, both hosts attributed.
	b.Add(mk(1, 1, 105), 0)
	rounds := b.CriticalPath("", 0).Rounds
	if len(rounds) != 1 || rounds[0].Round != 0 || len(rounds[0].Hosts) != 2 {
		t.Fatalf("after both hosts advanced: %d rounds %+v", len(rounds), rounds)
	}
	// A late host appearing with round-0 events cannot re-open the closed
	// round or double-attribute it.
	b.Add(mk(2, 0, 0), 0)
	b.Finish()
	rounds = b.CriticalPath("", 0).Rounds
	seen := map[int32]int{}
	for _, r := range rounds {
		seen[r.Round]++
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("round %d finalized %d times", r, n)
		}
	}
	if hp := rounds[0].HostPath(2); hp != nil {
		t.Fatal("late host 2 events leaked into already-finalized round 0")
	}
}

// TestCriticalWaitExcludesNextCompute: the runner computes round r+1 while
// round r's termination verdict is in flight, so r+1's compute span lies
// inside r's barrier span. The barrier keeps its full duration and the
// arrival stays its start, but the straggler-wait bucket counts only the
// part of the barrier that the host's next compute does not cover.
func TestCriticalWaitExcludesNextCompute(t *testing.T) {
	ev := func(h, r int32, ph Phase, start, dur int64) Event {
		return Event{Host: h, Round: r, Phase: ph, Start: start, Dur: dur, Peer: -1}
	}
	// Emission order per host: round 0's barrier, then round 1's compute.
	events := []Event{
		ev(0, 0, PhaseCompute, 0, 100), ev(0, 0, PhaseSync, 100, 100), ev(0, 0, PhaseBarrier, 200, 810),
		ev(1, 0, PhaseCompute, 0, 800), ev(1, 0, PhaseSync, 800, 100), ev(1, 0, PhaseBarrier, 900, 110),
		ev(0, 1, PhaseCompute, 200, 300), ev(0, 1, PhaseSync, 1010, 100), ev(0, 1, PhaseBarrier, 1110, 200),
		ev(1, 1, PhaseCompute, 900, 300), ev(1, 1, PhaseSync, 1200, 100), ev(1, 1, PhaseBarrier, 1300, 10),
	}
	cp := ComputeCriticalPath(Meta{}, events)
	if len(cp.Rounds) != 2 {
		t.Fatalf("attributed %d rounds, want 2", len(cp.Rounds))
	}
	r0 := &cp.Rounds[0]
	h0, h1 := r0.HostPath(0), r0.HostPath(1)
	if r0.Gate != 1 || h0.ArriveNs != 200 || h1.ArriveNs != 900 {
		t.Errorf("round 0: gate %d, arrivals %d and %d; want gate 1 arriving at 900 after 200", r0.Gate, h0.ArriveNs, h1.ArriveNs)
	}
	if h0.BarrierNs != 810 || h1.BarrierNs != 110 {
		t.Errorf("round 0 barrier spans %d and %d, want 810 and 110", h0.BarrierNs, h1.BarrierNs)
	}
	// Host 0's next compute [200, 500) lies wholly inside its barrier
	// [200, 1010); host 1's [900, 1200) covers all of [900, 1010).
	if got := h0.SubNs[CritWait]; got != 510 {
		t.Errorf("host 0 straggler wait %d, want 810 - 300 = 510", got)
	}
	if got := h1.SubNs[CritWait]; got != 0 {
		t.Errorf("host 1 straggler wait %d, want 0", got)
	}
	r1 := &cp.Rounds[1]
	if c := r1.HostPath(0).ComputeNs; c != 300 {
		t.Errorf("round 1 compute on host 0 = %d, want 300", c)
	}
	if res := r1.Residual(); res < 0 {
		t.Errorf("round 1 residual %d, negative", res)
	}
}

// TestCriticalPathJSONRoundTrip: the attribution (with its CritPhase names)
// survives JSON, which gluon-trace critical -json and gluon-trace top -o jsonl
// both rely on.
func TestCriticalPathJSONRoundTrip(t *testing.T) {
	cp := ComputeCriticalPath(Meta{Label: "rt"}, goldenTimeline())
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back CriticalPath
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rounds) != len(cp.Rounds) {
		t.Fatalf("round trip lost rounds: %d != %d", len(back.Rounds), len(cp.Rounds))
	}
	for i := range back.Rounds {
		if back.Rounds[i].GatePhase != cp.Rounds[i].GatePhase {
			t.Fatalf("round %d: phase %v != %v after round trip", i, back.Rounds[i].GatePhase, cp.Rounds[i].GatePhase)
		}
	}
	if !strings.Contains(string(blob), `"gate_phase":"recvwait"`) {
		t.Fatalf("CritPhase not serialized by name: %s", blob)
	}
}

// TestCriticalWriteTables smoke-checks the human rendering: header, gating
// verdict, and the ledger rows all present.
func TestCriticalWriteTables(t *testing.T) {
	cp := ComputeCriticalPath(Meta{Label: "tbl"}, goldenTimeline())
	var buf bytes.Buffer
	if err := cp.WriteTables(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"critical path (tbl):",
		"gate-phase",
		"recvwait",
		"gating verdict:",
		"optimization ledger",
		"naive-broadcast baseline",
		"saved by invariant skips",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q:\n%s", want, out)
		}
	}
}

// TestLedgerCounters: the ledger's round, channel and silent
// channel-round counts match the golden timeline's hand-computed model.
func TestLedgerCounters(t *testing.T) {
	ev := goldenTimeline()
	// 4th channel h0 -> 2 (field 7) shipping only in round 0, as in the
	// invariant-skip test, so the skip share is nonzero.
	ev = append(ev, Event{Start: 120, Dur: 5, Host: 0, Round: 0, Phase: PhaseEncode,
		Peer: 2, Field: 7, Lane: 2, Value: 500, Mode: 1})
	l := ComputeCriticalPath(Meta{}, ev).Ledger
	if l.Rounds != 2 || l.ShippedBytes == 0 {
		t.Fatalf("ledger over %d rounds shipped %d bytes, want 2 rounds and some bytes", l.Rounds, l.ShippedBytes)
	}
	// 4 channels × 2 rounds, 1 silent.
	if l.Channels != 4 || l.SilentChannelRounds != 1 {
		t.Fatalf("%d channels with %d silent channel-rounds, want 4 and 1", l.Channels, l.SilentChannelRounds)
	}
}
