package dsys_test

// Critical-path attribution over a real run. The synthetic goldens in
// internal/trace pin the engine's arithmetic; this file pins its contract
// against the substrate: every BSP round of a seeded 3-host golden-harness
// run is attributed exactly once, the gating host's sequential phase
// durations account for the round wall time (the in-process clock is exact,
// so only barrier-release skew and scheduler noise may remain), the ledger's
// shipped bytes reconcile with the run's own comm accounting, and the whole
// attribution is a deterministic function of the trace.

import (
	"reflect"
	"testing"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/partition"
	"gluon/internal/trace"
)

func TestCriticalPathGoldenRun(t *testing.T) {
	const hosts = 3
	cfg := generate.Config{Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 42}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	numNodes := cfg.NumNodes()

	tr := trace.New(trace.Config{Label: "critical-golden"})
	res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts:     hosts,
		Policy:    partition.CVC,
		Opt:       goldenOpt("osti"),
		MaxRounds: 50,
		Trace:     tr,
	}, bfs.NewLigra(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	events, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d events; raise capacity for this test", dropped)
	}

	cp := trace.ComputeCriticalPath(trace.Meta{Label: "critical-golden"}, events)

	// Every round attributed exactly once, in order.
	if len(cp.Rounds) != res.Rounds {
		t.Fatalf("attributed %d rounds, run had %d", len(cp.Rounds), res.Rounds)
	}
	for i := range cp.Rounds {
		r := &cp.Rounds[i]
		if r.Round != int32(i) {
			t.Fatalf("round sequence broken: got %d at index %d", r.Round, i)
		}
		if len(r.Hosts) != hosts {
			t.Errorf("round %d attributed %d hosts, want %d", i, len(r.Hosts), hosts)
		}
		if r.Gate < 0 || r.Gate >= hosts {
			t.Fatalf("round %d gate = host %d, out of range", i, r.Gate)
		}
		g := r.HostPath(r.Gate)
		if g == nil {
			t.Fatalf("round %d: gating host %d has no accounting", i, r.Gate)
		}
		// The gate is the last arrival: no other host reached the barrier
		// later (one shared clock, so the comparison is exact).
		for j := range r.Hosts {
			h := &r.Hosts[j]
			if h.ArriveNs > g.ArriveNs {
				t.Errorf("round %d: host %d arrived at %d, after gate %d at %d",
					i, h.Host, h.ArriveNs, r.Gate, g.ArriveNs)
			}
		}
		// Acceptance bar: the gate's sequential segments sum to the round's
		// wall time. In-process the clock uncertainty is zero, so the only
		// residual is the gate starting after the round's first host
		// (barrier-release skew plus scheduler noise) — nonnegative, and
		// far less than the wall itself.
		resid := r.Residual()
		if resid < 0 {
			t.Errorf("round %d: negative residual %d (gate segments exceed wall %d)", i, resid, r.WallNs)
		}
		if slack := r.WallNs/2 + 2_000_000; resid > slack {
			t.Errorf("round %d: residual %dns unexplained of %dns wall (> %dns slack)", i, resid, r.WallNs, slack)
		}
		// The gating phase is the argmax of the gate's own buckets.
		best := trace.CritPhase(0)
		for p := trace.CritPhase(0); p < trace.NumCritPhases; p++ {
			if g.SubNs[p] > g.SubNs[best] {
				best = p
			}
		}
		if r.GatePhase != best {
			t.Errorf("round %d: gate phase %v, argmax of buckets is %v", i, r.GatePhase, best)
		}
	}

	// Verdict covers every round.
	total := 0
	for _, gc := range cp.Verdict.Gates {
		total += gc.Count
	}
	if cp.Verdict.Rounds != res.Rounds || total != res.Rounds {
		t.Errorf("verdict accounts %d/%d gate counts over %d rounds, want %d",
			total, cp.Verdict.Rounds, res.Rounds, res.Rounds)
	}

	// Ledger reconciliation: shipped bytes must equal the substrate's own
	// accounting for the BSP rounds (round -1 memoization traffic is not a
	// round, so it stays outside the per-round baseline model).
	var initBytes uint64
	var syncMsgs uint64
	for _, e := range events {
		if e.Phase != trace.PhaseEncode {
			continue
		}
		if e.Round < 0 {
			initBytes += e.Value + e.Meta + e.GID
		} else {
			syncMsgs++
		}
	}
	l := cp.Ledger
	if l.ShippedBytes+initBytes != res.TotalCommBytes {
		t.Errorf("ledger shipped %d + init %d != run total %d", l.ShippedBytes, initBytes, res.TotalCommBytes)
	}
	if l.Messages != syncMsgs {
		t.Errorf("ledger messages = %d, trace has %d round-tagged encodes", l.Messages, syncMsgs)
	}
	if got := l.ShippedBytes + l.SparsitySavedBytes + l.InvariantSavedBytes; got != l.BaselineBytes {
		t.Errorf("ledger does not decompose: %d != baseline %d", got, l.BaselineBytes)
	}
	if l.BaselineBytes < l.ShippedBytes {
		t.Errorf("baseline %d below shipped %d", l.BaselineBytes, l.ShippedBytes)
	}

	// Determinism: the attribution is a pure function of the trace — a
	// recompute over the same events pins identical gates, phases, margins,
	// and ledger splits.
	cp2 := trace.ComputeCriticalPath(trace.Meta{Label: "critical-golden"}, events)
	if !reflect.DeepEqual(cp.Rounds, cp2.Rounds) {
		t.Error("recomputed round attribution differs: engine is not deterministic")
	}
	if !reflect.DeepEqual(cp.Verdict, cp2.Verdict) {
		t.Error("recomputed verdict differs")
	}
	if !reflect.DeepEqual(cp.Ledger, cp2.Ledger) {
		t.Error("recomputed ledger differs")
	}
}
