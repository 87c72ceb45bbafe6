package dsys_test

import (
	"errors"
	"testing"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// faultParts partitions a small deterministic graph for the fault suite.
func faultParts(t *testing.T, hosts int) (uint64, []*partition.Partition, uint32) {
	t.Helper()
	numNodes, edges, g := testGraph(t, 8, false)
	source := g.MaxOutDegreeNode()
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts, policyOptions(numNodes, g))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	return numNodes, parts, source
}

// runWithDeadline runs a dsys job and fails the test if it does not
// terminate — success or error — within the deadline. The whole point of
// the fault-tolerance layer is that a faulty cluster terminates.
func runWithDeadline(t *testing.T, d time.Duration, parts []*partition.Partition, ts []comm.Transport, source uint32) error {
	t.Helper()
	type outcome struct {
		res *dsys.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := dsys.RunWithTransports(parts, ts, dsys.RunConfig{
			Hosts: len(parts), Policy: partition.CVC, Opt: gluon.Opt(),
		}, bfs.NewGalois(uint64(source), 2))
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.err
	case <-time.After(d):
		t.Fatalf("BSP run still blocked after %v — the cluster hung instead of failing", d)
		return nil
	}
}

// tcpTransports dials a loopback mesh on kernel-chosen ports.
func tcpTransports(t *testing.T, hosts int) []comm.Transport {
	t.Helper()
	eps, _ := tcpMesh(t, hosts)
	return eps
}

// tcpMesh dials a loopback mesh and returns it with its listen addresses
// (a rejoining rank dials them again); the endpoints close with the test.
func tcpMesh(t *testing.T, hosts int) ([]comm.Transport, []string) {
	t.Helper()
	eps, addrs, err := comm.DialLoopbackMesh(hosts, comm.DialConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]comm.Transport, hosts)
	for i, ep := range eps {
		ts[i] = ep
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return ts, addrs
}

// TestBSPPeerDeath is the acceptance scenario: a full BSP run over
// FaultTransport with one peer link killed mid-round must terminate with a
// typed *comm.PeerError naming the dead host within the deadline — on both
// the in-process and the TCP transport (and under -race via `make check`).
func TestBSPPeerDeath(t *testing.T) {
	const hosts = 3
	faults := map[string]comm.FaultConfig{
		// Host 1's link to host 0 drops after a handful of messages —
		// mid-round, well after the mesh and the initial barrier are up.
		"kill-conn": {KillAfterSends: 5, KillPeer: 0},
		// The 5th frame host 1 receives arrives truncated; its sender is
		// poisoned as a malformed-frame peer.
		"truncated-frame": {TruncateRecvAfter: 5},
	}
	for name, fcfg := range faults {
		for _, transport := range []string{"inproc", "tcp"} {
			t.Run(name+"/"+transport, func(t *testing.T) {
				_, parts, source := faultParts(t, hosts)
				var ts []comm.Transport
				if transport == "inproc" {
					hub := comm.NewHub(hosts)
					defer hub.Close()
					ts = hub.Endpoints()
				} else {
					ts = tcpTransports(t, hosts)
				}
				// Host 1 runs over the faulty substrate; the rest are clean.
				ts[1] = comm.NewFaultTransport(ts[1], fcfg)

				err := runWithDeadline(t, 30*time.Second, parts, ts, source)
				if err == nil {
					t.Fatal("BSP run over a dying transport succeeded")
				}
				var pe *comm.PeerError
				if !errors.As(err, &pe) {
					t.Fatalf("want *comm.PeerError, got %T: %v", err, err)
				}
				// The failure names a host on the dead link: the killed
				// peer (0) as seen by host 1, or host 1 itself as seen by
				// a survivor after propagation.
				if pe.Host != 0 && pe.Host != 1 {
					t.Fatalf("PeerError names host %d, want 0 or 1: %v", pe.Host, err)
				}
			})
		}
	}
}

// TestBSPHostFailurePropagates: a host that fails locally (not through a
// transport fault) must still take the whole run down with it — survivors
// unblock with a *comm.PeerError naming it instead of waiting forever.
func TestBSPHostFailurePropagates(t *testing.T) {
	const hosts = 4
	_, parts, source := faultParts(t, hosts)
	hub := comm.NewHub(hosts)
	defer hub.Close()
	ts := hub.Endpoints()
	// Host 2's transport refuses its very first send: an immediately
	// failing host, before any sync completes.
	ts[2] = comm.NewFaultTransport(ts[2], comm.FaultConfig{KillAfterSends: 1, KillPeer: (2 + 1) % hosts})

	err := runWithDeadline(t, 30*time.Second, parts, ts, source)
	if err == nil {
		t.Fatal("run with a failing host succeeded")
	}
	var pe *comm.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("want *comm.PeerError, got: %v", err)
	}
}

// TestBSPDelayFaultStillCorrect: injected delays are turbulence, not
// failure — the run must complete and stay bit-correct against the
// sequential reference.
func TestBSPDelayFaultStillCorrect(t *testing.T) {
	const hosts = 3
	numNodes, edges, g := testGraph(t, 8, false)
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts, policyOptions(numNodes, g))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	hub := comm.NewHub(hosts)
	defer hub.Close()
	ts := hub.Endpoints()
	for h := range ts {
		ts[h] = comm.NewFaultTransport(ts[h], comm.FaultConfig{
			Seed: int64(h), DelayEvery: 20, Delay: time.Millisecond, DelayJitter: time.Millisecond,
		})
	}
	res, err := dsys.RunWithTransports(parts, ts, dsys.RunConfig{
		Hosts: hosts, Policy: partition.CVC, Opt: gluon.Opt(), CollectValues: true,
	}, bfs.NewGalois(uint64(source), 2))
	if err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	for i, w := range want {
		if float64(w) != res.Values[i] {
			t.Fatalf("node %d: got %v, want %d", i, res.Values[i], w)
		}
	}
}
