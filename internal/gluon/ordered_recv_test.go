package gluon_test

// The reduce phase asks the transport for one sender at a time, in ascending
// rank; whatever arrives early waits in the transport's mailbox. These tests
// pin what that must guarantee: the fold order does not depend on arrival
// order, and a phase that fails while early arrivals are still queued leaks
// none of their buffers.

import (
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

// fanIn partitions eight nodes over four hosts (two masters each, OEC) with
// one edge from a node of each of hosts 0, 1 and 2 to node 6, so host 3's
// master of node 6 has a mirror on every other host and a reduce folds three
// contributions into it.
func fanIn(t *testing.T) []*partition.Partition {
	t.Helper()
	edges := []graph.Edge{{Src: 0, Dst: 6}, {Src: 2, Dst: 6}, {Src: 4, Dst: 6}}
	pol, err := partition.NewPolicy(partition.OEC, 8, 4, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(8, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// cluster runs gluon.New on every host over ts (New is collective).
func cluster(t *testing.T, parts []*partition.Partition, ts []comm.Transport, opt gluon.Options) []*gluon.Gluon {
	t.Helper()
	gs := make([]*gluon.Gluon, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for h := range parts {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			gs[h], errs[h] = gluon.New(parts[h], ts[h], opt)
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	return gs
}

// wireHashTransport folds a digest of every message sent — sender, receiver,
// tag and payload — into acc, commutatively, so send order is irrelevant.
type wireHashTransport struct {
	comm.Transport
	acc *atomic.Uint64
}

func (h wireHashTransport) Send(to int, tag comm.Tag, payload []byte) error {
	f := fnv.New64a()
	f.Write([]byte{byte(h.HostID()), byte(to), byte(tag), byte(tag >> 8), byte(tag >> 16), byte(tag >> 24)})
	f.Write(payload)
	h.acc.Add(f.Sum64())
	return h.Transport.Send(to, tag, payload)
}

// sumField is a float64 sum-reduced field whose broadcast carries each
// master's folded value back to its mirrors.
func sumField(vals []float64) gluon.Field[float64] {
	return gluon.Field[float64]{
		ID: 7, Name: "sum",
		Write: gluon.AtDestination, Read: gluon.AtDestination,
		Reduce:    fields.Sum[float64](vals),
		Broadcast: fields.Set[float64](vals),
	}
}

// TestReduceFoldsInRankOrderUnderAdversarialArrival: hosts 0, 1 and 2
// contribute 1, 1e17 and -1e17 to one master. Folded in rank order the sum
// is (1 + 1e17) - 1e17 = 0; in any order that takes host 0 last it is 1. With
// every send of host 0 held back, hosts 1 and 2 arrive first — the master,
// and the broadcast bytes that carry it the same round, must still be those
// of the undelayed run, bit for bit.
func TestReduceFoldsInRankOrderUnderAdversarialArrival(t *testing.T) {
	parts := fanIn(t)
	contrib := []float64{1, 1e17, -1e17}
	run := func(delay time.Duration) (master float64, wire uint64) {
		hub := comm.NewHub(4)
		defer hub.Close()
		var acc atomic.Uint64
		ts := make([]comm.Transport, 4)
		for h, ep := range hub.Endpoints() {
			if h == 0 && delay > 0 {
				ep = comm.NewFaultTransport(ep, comm.FaultConfig{DelayEvery: 1, Delay: delay})
			}
			ts[h] = wireHashTransport{Transport: ep, acc: &acc}
		}
		gs := cluster(t, parts, ts, gluon.Opt())
		acc.Store(0) // memoization traffic is not the subject
		vals := make([][]float64, 4)
		errs := make([]error, 4)
		var wg sync.WaitGroup
		for h := range gs {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				vals[h] = make([]float64, parts[h].NumProxies())
				updated := bitset.New(parts[h].NumProxies())
				if h < 3 {
					lid, ok := parts[h].LID(6)
					if !ok {
						errs[h] = errors.New("no mirror of node 6")
						return
					}
					vals[h][lid] = contrib[h]
					updated.Set(lid)
				}
				errs[h] = gluon.Sync(gs[h], sumField(vals[h]), updated)
			}(h)
		}
		wg.Wait()
		for h, err := range errs {
			if err != nil {
				t.Fatalf("host %d: %v", h, err)
			}
		}
		lid, _ := parts[3].LID(6)
		return vals[3][lid], acc.Load()
	}
	master, wire := run(0)
	if master != 0 {
		t.Fatalf("undelayed master = %v, want 0 (the rank-order sum)", master)
	}
	lateMaster, lateWire := run(50 * time.Millisecond)
	if math.Float64bits(lateMaster) != math.Float64bits(master) {
		t.Errorf("master with host 0 arriving last = %v, want %v: the fold followed arrival order", lateMaster, master)
	}
	if lateWire != wire {
		t.Errorf("wire digest with host 0 arriving last = %#x, want %#x: a payload depends on arrival order", lateWire, wire)
	}
}

// TestEarlyArrivalsReleasedWhenPhaseFails: host 0 dies before it sends, so
// host 3's reduce fails waiting for it while the messages of hosts 1 and 2
// are already queued. Every pooled buffer must still come back — the queued
// ones when the transport closes.
func TestEarlyArrivalsReleasedWhenPhaseFails(t *testing.T) {
	parts := fanIn(t)
	comm.SetPoolAccounting(true)
	defer comm.SetPoolAccounting(false)
	hub := comm.NewHub(4)
	gs := cluster(t, parts, hub.Endpoints(), gluon.Opt())

	reduce := func(h int) error {
		vals := make([]float64, parts[h].NumProxies())
		updated := bitset.New(parts[h].NumProxies())
		if lid, ok := parts[h].LID(6); ok && h != 3 {
			vals[lid] = 1
			updated.Set(lid)
		}
		return gluon.SyncReduce(gs[h], sumField(vals), updated)
	}
	// Hosts 1 and 2 only send (nobody mirrors their masters), so their
	// messages are in host 3's mailbox once they return.
	for _, h := range []int{1, 2} {
		if err := reduce(h); err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	cause := errors.New("host 0 died")
	hub.Endpoint(3).(comm.PeerFailer).FailPeer(0, cause)
	err := reduce(3)
	var pe *comm.PeerError
	if !errors.As(err, &pe) || pe.Host != 0 {
		t.Fatalf("host 3 reduce: %v, want a *comm.PeerError naming host 0", err)
	}
	hub.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		gets, puts := comm.PoolCounters()
		if gets == puts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffer leak: %d gets vs %d puts", gets, puts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
