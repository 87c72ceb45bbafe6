package dsys_test

// Split-phase termination: a host with work computes round r+1 while round
// r's termination verdict is in flight. These tests pin that every round is
// computed exactly once, that a checkpoint still sees the state between
// rounds, that a host slow to answer the collective changes nothing but
// time, and that a Round failing meanwhile fails the run.

import (
	"errors"
	"math"
	"testing"
	"time"

	"gluon/internal/algorithms/bc"
	"gluon/internal/algorithms/bfs"
	"gluon/internal/algorithms/cc"
	"gluon/internal/algorithms/kcore"
	"gluon/internal/algorithms/pr"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/bitset"
	"gluon/internal/ckpt"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// roundCounter counts the Rounds its program has run and records the count
// at every checkpoint export (cp is nil for a run without checkpoints).
type roundCounter struct {
	dsys.Program
	cp      dsys.Checkpointable
	rounds  int
	exports []int
}

func (c *roundCounter) Round(f *bitset.Bitset) (*bitset.Bitset, error) {
	c.rounds++
	return c.Program.Round(f)
}

func (c *roundCounter) ExportState() ([]ckpt.Section, error) {
	c.exports = append(c.exports, c.rounds)
	return c.cp.ExportState()
}

func (c *roundCounter) ImportState(secs []ckpt.Section) error { return c.cp.ImportState(secs) }

// countedRun runs factory on 3 hosts and returns the result with each
// host's counter.
func countedRun(t *testing.T, edges []graph.Edge, numNodes uint64, cfg dsys.RunConfig, factory dsys.ProgramFactory) (*dsys.Result, []*roundCounter) {
	t.Helper()
	cfg.Hosts, cfg.Policy, cfg.Opt = 3, partition.CVC, gluon.Opt()
	counters := make([]*roundCounter, cfg.Hosts)
	res, err := dsys.Run(numNodes, edges, cfg, func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		prog, err := factory(p, g)
		if err != nil {
			return nil, err
		}
		cp, _ := prog.(dsys.Checkpointable)
		counters[p.HostID] = &roundCounter{Program: prog, cp: cp}
		return counters[p.HostID], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, counters
}

// TestRoundRunsOncePerRound: for every program factory in the tree, each
// host calls Round exactly once per round, whether the run ends on a zero
// verdict or at MaxRounds. A host computes the next round during the
// termination wait only when it has work of its own — so the verdict
// cannot be "stop" — and never past MaxRounds, so nothing computed ahead
// is thrown away (and the benchmark's wrappers, which open a round per
// Round call, count the rounds the run reports).
func TestRoundRunsOncePerRound(t *testing.T) {
	numNodes, edges, g := testGraph(t, 8, true)
	sym := ref.Symmetrize(edges)
	source := uint64(g.MaxOutDegreeNode())
	cases := []struct {
		name      string
		symmetric bool
		maxRounds int
		factory   dsys.ProgramFactory
	}{
		{"bfs/ligra", false, 0, bfs.NewLigra(source, 2)},
		{"bfs/galois", false, 0, bfs.NewGalois(source, 2)},
		{"bfs/irgl", false, 0, bfs.NewIrGL(source, 2)},
		{"sssp/ligra", false, 0, sssp.NewLigra(source, 2)},
		{"sssp/galois", false, 0, sssp.NewGalois(source, 2)},
		{"sssp/irgl", false, 0, sssp.NewIrGL(source, 2)},
		{"cc/ligra", true, 0, cc.NewLigra(2)},
		{"cc/galois", true, 0, cc.NewGalois(2)},
		{"cc/irgl", true, 0, cc.NewIrGL(2)},
		{"kcore/ligra", true, 0, kcore.NewLigra(4, 2)},
		{"kcore/galois", true, 0, kcore.NewGalois(4, 2)},
		{"kcore/irgl", true, 0, kcore.NewIrGL(4, 2)},
		{"pr/ligra", false, 0, pr.NewLigra(1e-4, 2)},
		{"pr/galois", false, 0, pr.NewGalois(1e-4, 2)},
		{"pr/irgl", false, 0, pr.NewIrGL(1e-4, 2)},
		{"pr/galois/capped", false, 5, pr.NewGalois(1e-9, 2)},
		{"bc", false, 0, bc.New(source, 2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := edges
			if c.symmetric {
				in = sym
			}
			res, counters := countedRun(t, in, numNodes, dsys.RunConfig{MaxRounds: c.maxRounds}, c.factory)
			if res.Rounds < 2 || (c.maxRounds > 0 && res.Rounds != c.maxRounds) {
				t.Fatalf("%d rounds: the run must take several rounds and stop where the test expects", res.Rounds)
			}
			for h, cnt := range counters {
				if cnt.rounds != res.Rounds {
					t.Errorf("host %d ran Round %d times in a %d-round run", h, cnt.rounds, res.Rounds)
				}
			}
		})
	}
}

// TestSlowRootChangesNothing: host 0 gathers and answers every termination
// all-reduce, so delaying its sends leaves the other hosts waiting on each
// verdict with the next round already computed. Answers, rounds and bytes
// must come out identical to the undelayed run.
func TestSlowRootChangesNothing(t *testing.T) {
	const hosts = 3
	numNodes, edges, g := testGraph(t, 9, false)
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts, policyOptions(numNodes, g))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	run := func(delay time.Duration) *dsys.Result {
		hub := comm.NewHub(hosts)
		defer hub.Close()
		ts := hub.Endpoints()
		ts[0] = comm.NewFaultTransport(ts[0], comm.FaultConfig{DelayEvery: 2, Delay: delay})
		res, err := dsys.RunWithTransports(parts, ts, dsys.RunConfig{
			Hosts: hosts, Policy: partition.CVC, Opt: gluon.Opt(), CollectValues: true, MaxRounds: 1000,
		}, pr.NewGalois(1e-6, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(0), run(500*time.Microsecond)
	if got.Rounds != want.Rounds || got.TotalCommBytes != want.TotalCommBytes {
		t.Fatalf("delayed root: rounds %d, comm %d B; undelayed: rounds %d, comm %d B",
			got.Rounds, got.TotalCommBytes, want.Rounds, want.TotalCommBytes)
	}
	for v := range want.Values {
		if math.Float64bits(got.Values[v]) != math.Float64bits(want.Values[v]) {
			t.Fatalf("node %d: rank %v with a delayed root, %v without", v, got.Values[v], want.Values[v])
		}
	}
}

// TestCheckpointSeesStateBeforeCompute: the runner does not compute the
// next round during the termination wait of a round that ends at a
// checkpoint boundary, so the snapshot of epoch e is taken after exactly e
// Rounds on every host.
func TestCheckpointSeesStateBeforeCompute(t *testing.T) {
	numNodes, edges, g := testGraph(t, 9, false)
	res, counters := countedRun(t, edges, numNodes, dsys.RunConfig{
		MaxRounds:  100,
		Checkpoint: &ckpt.Options{Dir: t.TempDir(), Every: 2, Keep: 2},
	}, bfs.NewLigra(uint64(g.MaxOutDegreeNode()), 2))
	for h, c := range counters {
		if len(c.exports) < 2 {
			t.Fatalf("host %d: %d checkpoints in %d rounds, want a boundary after round 0", h, len(c.exports), res.Rounds)
		}
		for i, n := range c.exports {
			if epoch := 2 * i; n != epoch {
				t.Errorf("host %d: snapshot of epoch %d taken after %d Rounds", h, epoch, n)
			}
		}
	}
}

// failSecondRound fails its host's second Round, which the runner calls
// while the first round's termination all-reduce is pending.
type failSecondRound struct {
	dsys.Program
	fail   bool
	rounds int
}

var errRound = errors.New("round failed")

func (f *failSecondRound) Round(fr *bitset.Bitset) (*bitset.Bitset, error) {
	if f.rounds++; f.fail && f.rounds == 2 {
		return nil, errRound
	}
	return f.Program.Round(fr)
}

// TestRoundErrorWhileVerdictPending: a Round that fails while its host's
// termination all-reduce is pending fails the run with that error — on the
// root, which owes the others their verdict, and on a non-root — instead of
// leaving the cluster blocked.
func TestRoundErrorWhileVerdictPending(t *testing.T) {
	numNodes, edges, _ := testGraph(t, 8, false)
	for _, host := range []int{0, 1} {
		done := make(chan error, 1)
		go func() {
			_, err := dsys.Run(numNodes, edges, dsys.RunConfig{Hosts: 3, Policy: partition.CVC, Opt: gluon.Opt(), MaxRounds: 20},
				func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
					prog, err := pr.NewGalois(1e-9, 2)(p, g)
					return &failSecondRound{Program: prog, fail: p.HostID == host}, err
				})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, errRound) {
				t.Fatalf("host %d failing: run returned %v, want the Round's error", host, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("host %d failing: the run is still blocked", host)
		}
	}
}
