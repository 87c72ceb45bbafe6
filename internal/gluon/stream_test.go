package gluon_test

// A sync with both halves sends an order whose values exceed the slice size
// as fixed slices, folds reduce slices as they arrive and broadcasts each
// master range once it is final. These tests lower the slice size so that
// small graphs cut their orders into several slices, and pin that the cut
// changes nothing a program can see: final values bit for bit, the set each
// round's sync leaves, the round count, and the typed error of a peer that
// dies mid-stream. (The fold order of sliced float sums under adversarial
// arrival is pinned with the whole-message case in ordered_recv_test.go.)

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/algorithms/cc"
	"gluon/internal/algorithms/kcore"
	"gluon/internal/algorithms/pr"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// testSliceBytes cuts every order of more than four 32-bit or two 64-bit
// values into slices.
const testSliceBytes = 16

// syncLog wraps a program and keeps a copy of the set each Sync leaves.
type syncLog struct {
	dsys.Program
	sets *[]*bitset.Bitset
}

func (l syncLog) Sync(updated *bitset.Bitset) error {
	err := l.Program.Sync(updated)
	*l.sets = append(*l.sets, updated.Clone())
	return err
}

// streamRun runs factory on the graph with orders cut at sliceBytes (0
// keeps the default) and returns the result and, per host, the sets its
// syncs left, round by round.
func streamRun(t *testing.T, numNodes uint64, edges []graph.Edge, kind partition.Kind, hosts int, opt gluon.Options, sliceBytes int, factory dsys.ProgramFactory) (*dsys.Result, [][]*bitset.Bitset) {
	t.Helper()
	if sliceBytes > 0 {
		defer gluon.SetSliceBytes(sliceBytes)()
	}
	sets := make([][]*bitset.Bitset, hosts)
	res, err := dsys.Run(numNodes, edges, dsys.RunConfig{
		Hosts: hosts, Policy: kind, Opt: opt, CollectValues: true, MaxRounds: 40,
	}, func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		prog, err := factory(p, g)
		return syncLog{prog, &sets[p.HostID]}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, sets
}

func messagesSent(res *dsys.Result) uint64 {
	var n uint64
	for _, h := range res.Hosts {
		n += h.Gluon.MessagesSent
	}
	return n
}

// TestStreamedSyncMatchesWholeOrders: every program on every policy at 2, 3
// and 4 hosts gives the same answer in the same number of rounds with its
// orders cut into slices as whole, and leaves the same set after every
// round's sync under a sparse encoding. (A dense message activates every
// mirror it delivers to, updated or not, and a slice chooses its encoding
// from its own members, so under the adaptive choice a cut order can
// activate other unchanged mirrors than the whole order would.) Every OEC
// sync of these programs has one half and keeps one message per peer; CVC
// and HVC syncs have both and send more.
func TestStreamedSyncMatchesWholeOrders(t *testing.T) {
	cfg := generate.Config{Kind: "rmat", Scale: 7, EdgeFactor: 8, Seed: 11, Weighted: true}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sym := ref.Symmetrize(edges)
	progs := []struct {
		name  string
		edges []graph.Edge
		f     dsys.ProgramFactory
	}{
		{"pr-galois", edges, pr.NewGalois(1e-9, 1)},
		{"pr-ligra", edges, pr.NewLigra(1e-9, 1)},
		{"pr-irgl", edges, pr.NewIrGL(1e-9, 1)},
		{"kcore", sym, kcore.NewGalois(4, 1)},
		{"bfs", edges, bfs.NewLigra(0, 1)},
		{"sssp", edges, sssp.NewGalois(0, 1)},
		{"cc", sym, cc.NewIrGL(1)},
	}
	sparse := gluon.Opt()
	sparse.ForceEncoding = gluon.EncodingBitvec
	for _, p := range progs {
		for _, kind := range partition.AllKinds() {
			for hosts := 2; hosts <= 4; hosts++ {
				for _, opt := range []gluon.Options{gluon.Opt(), sparse} {
					whole, wholeSets := streamRun(t, cfg.NumNodes(), p.edges, kind, hosts, opt, 0, p.f)
					cut, cutSets := streamRun(t, cfg.NumNodes(), p.edges, kind, hosts, opt, testSliceBytes, p.f)
					where := fmt.Sprintf("%s/%s/%d hosts/encoding %d", p.name, kind, hosts, opt.ForceEncoding)
					if cut.Rounds != whole.Rounds {
						t.Fatalf("%s: %d rounds cut, %d whole", where, cut.Rounds, whole.Rounds)
					}
					for gid, v := range whole.Values {
						if math.Float64bits(cut.Values[gid]) != math.Float64bits(v) {
							t.Fatalf("%s: node %d is %v cut, %v whole", where, gid, cut.Values[gid], v)
						}
					}
					for h := range wholeSets {
						for r, set := range wholeSets[h] {
							if opt.ForceEncoding == gluon.EncodingAuto {
								break
							}
							if !equalWords(cutSets[h][r].Words(), set.Words()) {
								t.Fatalf("%s: host %d round %d: sync left %v cut, %v whole", where, h, r, cutSets[h][r], set)
							}
						}
					}
					cutMsgs, wholeMsgs := messagesSent(cut), messagesSent(whole)
					if kind == partition.OEC && cutMsgs != wholeMsgs {
						t.Errorf("%s: %d messages cut, %d whole: a one-half sync was cut", where, cutMsgs, wholeMsgs)
					} else if (kind == partition.CVC || kind == partition.HVC) && cutMsgs <= wholeMsgs {
						t.Errorf("%s: %d messages cut, %d whole: nothing was cut", where, cutMsgs, wholeMsgs)
					}
				}
			}
		}
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wideFanIn partitions 4·m nodes over four hosts (m masters each, OEC) with
// an edge from one node of each of hosts 0, 1 and 2 to every node of host 3,
// so each of host 3's masters folds three contributions and each sender's
// order to host 3 holds m mirrors.
func wideFanIn(t *testing.T, m uint64) []*partition.Partition {
	t.Helper()
	var edges []graph.Edge
	for i := uint64(0); i < m; i++ {
		for h := uint64(0); h < 3; h++ {
			edges = append(edges, graph.Edge{Src: h * m, Dst: 3*m + i})
		}
	}
	pol, err := partition.NewPolicy(partition.OEC, 4*m, 4, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(4*m, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// dyingTransport fails its peer after its first send: the second send
// poisons host 0 at the receiver, as a lost connection would, and fails.
type dyingTransport struct {
	comm.Transport
	receiver comm.PeerFailer
	sends    atomic.Int32
}

func (d *dyingTransport) Send(to int, tag comm.Tag, payload []byte) error {
	if d.sends.Add(1) == 1 {
		return d.Transport.Send(to, tag, payload)
	}
	comm.PutBuf(payload)
	err := errors.New("host 0 died")
	d.receiver.FailPeer(d.HostID(), err)
	return err
}

// TestPeerDiesMidStream: host 0 dies after its first reduce slice has
// reached host 3. Host 3's sync, which has folded that slice and may have
// broadcast part of the result, must fail with the typed *comm.PeerError
// naming host 0, leave no send goroutine behind, and leak no pooled buffer.
func TestPeerDiesMidStream(t *testing.T) {
	defer gluon.SetSliceBytes(8 * 8)()
	comm.SetPoolAccounting(true)
	defer comm.SetPoolAccounting(false)
	const m = 32
	parts := wideFanIn(t, m)
	hub := comm.NewHub(4)
	ts := hub.Endpoints()
	gs := cluster(t, parts, ts, gluon.Opt())
	gs[0].T = &dyingTransport{Transport: ts[0], receiver: ts[3].(comm.PeerFailer)}

	errs := make([]error, 4)
	done := make([]chan struct{}, 4)
	for h := range gs {
		done[h] = make(chan struct{})
		go func(h int) {
			defer close(done[h])
			vals := make([]float64, parts[h].NumProxies())
			updated := bitset.New(parts[h].NumProxies())
			for i := uint64(0); h < 3 && i < m; i++ {
				lid, _ := parts[h].LID(3*m + i)
				vals[lid] = 1
				updated.Set(lid)
			}
			errs[h] = gluon.Sync(gs[h], sumField(vals), updated)
		}(h)
	}
	<-done[3]
	var pe *comm.PeerError
	if !errors.As(errs[3], &pe) || pe.Host != 0 {
		t.Fatalf("host 3 sync: %v, want a *comm.PeerError naming host 0", errs[3])
	}
	// The others wait for broadcasts host 3 will never finish; closing the
	// transports releases them, as the runner's poisoning would.
	hub.Close()
	for h := 0; h < 3; h++ {
		if <-done[h]; errs[h] == nil {
			t.Errorf("host %d sync succeeded without host 3's broadcast", h)
		}
	}
	quiet := make(chan struct{})
	go func() {
		for _, g := range gs {
			g.WaitSends()
		}
		close(quiet)
	}()
	select {
	case <-quiet:
	case <-time.After(5 * time.Second):
		t.Fatal("a send goroutine outlived the failed sync")
	}

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
