package gluon_test

// Black-box end-to-end tests of the substrate's Sync machinery: a
// hand-checkable two-host partition, a full reduce+broadcast cycle, and
// behavioural invariants (frontier semantics, encoding forcing,
// BroadcastAll reconciliation).

import (
	"sync"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

// twoHosts builds a 2-host OEC partitioning of the Figure 2-style graph:
// nodes 0..5, host 0 owns {0,1,2}, host 1 owns {3,4,5}; cross edges create
// mirrors.
func twoHosts(t *testing.T, opt gluon.Options) ([]*partition.Partition, []*gluon.Gluon, func()) {
	t.Helper()
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 3}, {Src: 1, Dst: 4}, // host0-owned sources
		{Src: 3, Dst: 5}, {Src: 4, Dst: 2}, {Src: 5, Dst: 0}, // host1-owned sources
	}
	pol, err := partition.NewPolicy(partition.OEC, 6, 2, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(6, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	hub := comm.NewHub(2)
	return parts, cluster(t, parts, hub.Endpoints(), opt), hub.Close
}

// syncBoth runs fn on both hosts concurrently (Sync is collective).
func syncBoth(t *testing.T, fn func(h int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			errs[h] = fn(h)
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
}

func mkField(id uint32, labels []uint32) gluon.Field[uint32] {
	return gluon.Field[uint32]{
		ID:        id,
		Name:      "test",
		Write:     gluon.AtDestination,
		Read:      gluon.AtSource,
		Reduce:    fields.Min[uint32](labels),
		Broadcast: fields.Set[uint32](labels),
	}
}

// TestReduceMovesMirrorValueToMaster: host 0 writes a value on its mirror
// of node 4 (owned by host 1); after Sync, host 1's master holds the min.
// The same exchange runs through an add-combined field too, where the
// mirror reset matters (§2.3's push-pagerank example): the master adds the
// shipped partial to its own, the shipped mirror is back at the + identity,
// and a mirror left out of updated keeps its partial for a later round —
// unless a dense message ships the whole order, which moves that partial
// to the master with the rest. Either way no partial is lost or counted
// twice.
func TestReduceMovesMirrorValueToMaster(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  gluon.Encoding
	}{{"auto", gluon.EncodingAuto}, {"indices", gluon.EncodingIndices}} {
		t.Run(tc.name, func(t *testing.T) {
			opt := gluon.Opt()
			opt.ForceEncoding = tc.enc
			parts, gs, closeHub := twoHosts(t, opt)
			defer closeHub()

			labels := make([][]uint32, 2)
			sums := make([][]uint64, 2)
			for h := range labels {
				labels[h] = make([]uint32, parts[h].NumProxies())
				for i := range labels[h] {
					labels[h][i] = fields.InfinityU32
				}
				sums[h] = make([]uint64, parts[h].NumProxies())
			}
			// Host 0 has mirrors of global nodes 3 and 4 (edges 1→3 and 1→4
			// are OEC-assigned to host 0, source owner); host 1 masters both.
			m4, ok4 := parts[0].LID(4)
			m3, ok3 := parts[0].LID(3)
			if !ok4 || !ok3 || parts[0].IsMaster(m4) || parts[0].IsMaster(m3) {
				t.Fatalf("expected mirrors of 3 and 4 on host 0 (lids %d %d)", m3, m4)
			}
			lid4, _ := parts[1].LID(4)
			lid3, _ := parts[1].LID(3)
			if !parts[1].IsMaster(lid4) || !parts[1].IsMaster(lid3) {
				t.Fatal("nodes 3 and 4 not mastered on host 1")
			}
			labels[0][m4] = 7
			sums[0][m4], sums[0][m3], sums[1][lid4], sums[1][lid3] = 5, 9, 2, 1
			sumField := func(vals []uint64) gluon.Field[uint64] {
				return gluon.Field[uint64]{ID: 26, Name: "test-sum", Write: gluon.AtDestination,
					Read: gluon.AtDestination, Reduce: fields.Sum[uint64](vals)}
			}

			syncBoth(t, func(h int) error {
				shipped := func() *bitset.Bitset {
					upd := bitset.New(parts[h].NumProxies())
					if h == 0 {
						upd.SetUnsync(m4)
					}
					return upd
				}
				if err := gluon.Sync(gs[h], mkField(21, labels[h]), shipped()); err != nil {
					return err
				}
				return gluon.Sync(gs[h], sumField(sums[h]), shipped())
			})

			if labels[1][lid4] != 7 {
				t.Fatalf("master label = %d, want 7", labels[1][lid4])
			}
			if sums[1][lid4] != 7 {
				t.Fatalf("master sum = %d, want own 2 + mirror's 5", sums[1][lid4])
			}
			if sums[0][m4] != 0 {
				t.Fatalf("shipped mirror sum = %d, want reset to 0", sums[0][m4])
			}
			kept := sums[0][m3] == 9 && sums[1][lid3] == 1
			moved := sums[0][m3] == 0 && sums[1][lid3] == 10
			if !kept && !(moved && tc.enc == gluon.EncodingAuto) {
				t.Fatalf("unshipped partial: mirror %d, master %d; want 9 kept on the mirror",
					sums[0][m3], sums[1][lid3])
			}
		})
	}
}

// TestSyncUpdatesFrontierSemantics: after Sync, the updated bitset holds
// exactly the master(s) that changed (shipped mirror bits are consumed,
// and OEC needs no broadcast).
func TestSyncUpdatesFrontierSemantics(t *testing.T) {
	parts, gs, closeHub := twoHosts(t, gluon.Opt())
	defer closeHub()
	labels := make([][]uint32, 2)
	for h := range labels {
		labels[h] = make([]uint32, parts[h].NumProxies())
		for i := range labels[h] {
			labels[h][i] = fields.InfinityU32
		}
	}
	m4, _ := parts[0].LID(4)
	labels[0][m4] = 3
	upds := make([]*bitset.Bitset, 2)
	syncBoth(t, func(h int) error {
		upds[h] = bitset.New(parts[h].NumProxies())
		if h == 0 {
			upds[h].SetUnsync(m4)
		}
		return gluon.Sync(gs[h], mkField(22, labels[h]), upds[h])
	})
	if upds[0].Any() {
		t.Fatalf("host 0 updated not consumed: %v", upds[0])
	}
	lid4, _ := parts[1].LID(4)
	if !upds[1].Test(lid4) || upds[1].Count() != 1 {
		t.Fatalf("host 1 updated = %v, want exactly master of 4", upds[1])
	}
}

// TestForceEncodingStillCorrect: pinning each encoding changes bytes but
// never results.
func TestForceEncodingStillCorrect(t *testing.T) {
	for _, enc := range []gluon.Encoding{gluon.EncodingDense, gluon.EncodingBitvec, gluon.EncodingIndices} {
		opt := gluon.Opt()
		opt.ForceEncoding = enc
		parts, gs, closeHub := twoHosts(t, opt)
		labels := make([][]uint32, 2)
		for h := range labels {
			labels[h] = make([]uint32, parts[h].NumProxies())
			for i := range labels[h] {
				labels[h][i] = fields.InfinityU32
			}
		}
		m4, _ := parts[0].LID(4)
		labels[0][m4] = 9
		syncBoth(t, func(h int) error {
			upd := bitset.New(parts[h].NumProxies())
			if h == 0 {
				upd.SetUnsync(m4)
			}
			return gluon.Sync(gs[h], mkField(23, labels[h]), upd)
		})
		lid4, _ := parts[1].LID(4)
		if labels[1][lid4] != 9 {
			t.Fatalf("encoding %d: master = %d, want 9", enc, labels[1][lid4])
		}
		closeHub()
	}
}

// TestBroadcastAllReconciles: masters' values reach every mirror,
// including mirrors OEC would normally skip.
func TestBroadcastAllReconciles(t *testing.T) {
	parts, gs, closeHub := twoHosts(t, gluon.Opt())
	defer closeHub()
	labels := make([][]uint32, 2)
	for h := range labels {
		labels[h] = make([]uint32, parts[h].NumProxies())
		for lid := range labels[h] {
			if parts[h].IsMaster(uint32(lid)) {
				labels[h][lid] = uint32(parts[h].GID(uint32(lid))) * 10
			} else {
				labels[h][lid] = fields.InfinityU32
			}
		}
	}
	syncBoth(t, func(h int) error {
		return gluon.BroadcastAll(gs[h], mkField(24, labels[h]))
	})
	for h := range parts {
		for lid := uint32(0); lid < parts[h].NumProxies(); lid++ {
			want := uint32(parts[h].GID(lid)) * 10
			if labels[h][lid] != want {
				t.Fatalf("host %d lid %d: %d, want %d", h, lid, labels[h][lid], want)
			}
		}
	}
}

// TestStatsSplitAfterRealSync: GID bytes appear only under UNOPT.
func TestStatsSplitAfterRealSync(t *testing.T) {
	for _, ti := range []bool{true, false} {
		opt := gluon.Options{StructuralInvariants: true, TemporalInvariance: ti}
		parts, gs, closeHub := twoHosts(t, opt)
		labels := make([][]uint32, 2)
		for h := range labels {
			labels[h] = make([]uint32, parts[h].NumProxies())
		}
		m4, _ := parts[0].LID(4)
		syncBoth(t, func(h int) error {
			upd := bitset.New(parts[h].NumProxies())
			if h == 0 {
				labels[h][m4] = 1
				upd.SetUnsync(m4)
			}
			return gluon.Sync(gs[h], mkField(25, labels[h]), upd)
		})
		st := gs[0].Stats()
		if ti && st.GIDBytes != 0 {
			t.Fatalf("optimized sync sent %d GID bytes", st.GIDBytes)
		}
		if !ti && st.GIDBytes == 0 {
			t.Fatal("unoptimized sync sent no GID bytes")
		}
		closeHub()
	}
}
