package gluon_test

// The reduce phase asks the transport for one sender at a time, in ascending
// rank; whatever arrives early waits in the transport's mailbox. These tests
// pin what that must guarantee: the fold order does not depend on arrival
// order, and a phase that fails while early arrivals are still queued leaks
// none of their buffers.

import (
	"errors"
	"fmt"
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
// contribute 1, 1e17 and -1e17 to each master of host 3 they feed. Folded in
// rank order each sum is (1 + 1e17) - 1e17 = 0; in any order that takes host
// 0 last it is 1. One master gets one message from each sender; 32 masters
// get four slices from each sender (orders cut at 64 bytes). With every send
// of host 0 held back, its messages arrive last (inverted); with every sender
// held back by a different step, the senders' slices alternate
// (interleaved). The masters, and every payload of the sync — the broadcast
// carries them back the same round — must be those of the undelayed run,
// bit for bit.
func TestReduceFoldsInRankOrderUnderAdversarialArrival(t *testing.T) {
	const ms = time.Millisecond
	for _, c := range []struct {
		name       string
		parts      []*partition.Partition
		fed        []uint64 // GIDs of the masters of host 3 hosts 0–2 feed
		sliceBytes int      // 0 keeps orders whole
		msgs       uint64   // messages one sync sends: reduce and broadcast
		delays     map[string][3]time.Duration
	}{
		{"whole", fanIn(t), []uint64{6}, 0, 6,
			map[string][3]time.Duration{"inverted": {50 * ms}}},
		{"sliced", wideFanIn(t, 32), gidRange(96, 128), 8 * 8, 24,
			map[string][3]time.Duration{"inverted": {20 * ms}, "interleaved": {3 * ms, 5 * ms, 7 * ms}}},
	} {
		run := func(delay [3]time.Duration) (masters []float64, wire, msgs uint64) {
			if c.sliceBytes > 0 {
				defer gluon.SetSliceBytes(c.sliceBytes)()
			}
			hub := comm.NewHub(4)
			defer hub.Close()
			var acc atomic.Uint64
			ts := make([]comm.Transport, 4)
			for h, ep := range hub.Endpoints() {
				if h < 3 && delay[h] > 0 {
					ep = comm.NewFaultTransport(ep, comm.FaultConfig{DelayEvery: 1, Delay: delay[h]})
				}
				ts[h] = wireHashTransport{Transport: ep, acc: &acc}
			}
			gs := cluster(t, c.parts, ts, gluon.Opt())
			acc.Store(0) // memoization traffic is not the subject
			vals := make([][]float64, 4)
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for h := range gs {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					vals[h] = make([]float64, c.parts[h].NumProxies())
					updated := bitset.New(c.parts[h].NumProxies())
					for _, gid := range c.fed {
						if h == 3 {
							break
						}
						lid, ok := c.parts[h].LID(gid)
						if !ok {
							errs[h] = fmt.Errorf("no mirror of node %d", gid)
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
					t.Fatalf("%s: host %d: %v", c.name, h, err)
				}
			}
			for _, g := range gs {
				msgs += g.Stats().MessagesSent
			}
			for _, gid := range c.fed {
				lid, _ := c.parts[3].LID(gid)
				masters = append(masters, vals[3][lid])
			}
			return masters, acc.Load(), msgs
		}
		masters, wire, msgs := run([3]time.Duration{})
		if msgs != c.msgs {
			t.Fatalf("%s: sync sent %d messages, want %d", c.name, msgs, c.msgs)
		}
		for i, v := range masters {
			if v != 0 {
				t.Fatalf("%s: undelayed master %d = %v, want 0 (the rank-order sum)", c.name, c.fed[i], v)
			}
		}
		for name, delay := range c.delays {
			late, lateWire, _ := run(delay)
			for i := range masters {
				if math.Float64bits(late[i]) != math.Float64bits(masters[i]) {
					t.Errorf("%s/%s: master %d = %v, want %v: the fold followed arrival order", c.name, name, c.fed[i], late[i], masters[i])
				}
			}
			if lateWire != wire {
				t.Errorf("%s/%s: wire digest %#x, want %#x: a payload depends on arrival order", c.name, name, lateWire, wire)
			}
		}
	}
}

// contrib is what hosts 0, 1 and 2 add to each master they feed.
var contrib = [3]float64{1, 1e17, -1e17}

func gidRange(lo, hi uint64) []uint64 {
	var gids []uint64
	for gid := lo; gid < hi; gid++ {
		gids = append(gids, gid)
	}
	return gids
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
		f := sumField(vals)
		f.Broadcast = nil
		return gluon.Sync(gs[h], f, updated)
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
