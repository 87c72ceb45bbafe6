package gluon

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/generate"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

// buildCluster partitions a small rmat graph and constructs a Gluon
// instance per host over an in-process hub.
func buildCluster(t testing.TB, kind partition.Kind, hosts int, opt Options) []*Gluon {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: 8, EdgeFactor: 8, Seed: 21}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, cfg.NumNodes())
	for u := uint32(0); u < g.NumNodes(); u++ {
		out[u] = g.OutDegree(u)
	}
	pol, err := partition.NewPolicy(kind, cfg.NumNodes(), hosts,
		partition.Options{OutDegrees: out, InDegrees: g.InDegrees()})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(cfg.NumNodes(), edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	hub := comm.NewHub(hosts)
	t.Cleanup(hub.Close)
	gs := make([]*Gluon, hosts)
	var wg sync.WaitGroup
	errs := make([]error, hosts)
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			gs[h], errs[h] = New(parts[h], hub.Endpoint(h), opt)
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

// countAll is the number of entries over all per-peer lists.
func countAll(lists [][]uint32) uint64 {
	var c uint64
	for _, l := range lists {
		c += uint64(len(l))
	}
	return c
}

// TestMemoizationAlignment: for every host pair, the sender's mirror list
// and the receiver's master list have identical lengths and refer to the
// same global IDs in the same order — the §4.1 contract that lets values
// travel without IDs.
func TestMemoizationAlignment(t *testing.T) {
	for _, kind := range partition.AllKinds() {
		t.Run(string(kind), func(t *testing.T) {
			gs := buildCluster(t, kind, 4, Opt())
			for a := range gs {
				for b := range gs {
					if a == b {
						continue
					}
					mirrors := gs[a].mirrors.lists[b]
					masters := gs[b].masters.lists[a]
					if len(mirrors) != len(masters) {
						t.Fatalf("pair (%d,%d): %d mirrors vs %d masters", a, b, len(mirrors), len(masters))
					}
					for i := range mirrors {
						ga := gs[a].Part.GID(mirrors[i])
						gb := gs[b].Part.GID(masters[i])
						if ga != gb {
							t.Fatalf("pair (%d,%d) position %d: gid %d vs %d", a, b, i, ga, gb)
						}
					}
					// Structural subsets align too.
					for i := range gs[a].mirrorsIn.lists[b] {
						if gs[a].Part.GID(gs[a].mirrorsIn.lists[b][i]) != gs[b].Part.GID(gs[b].mastersIn.lists[a][i]) {
							t.Fatalf("pair (%d,%d): mirrorsIn misaligned at %d", a, b, i)
						}
					}
					for i := range gs[a].mirrorsOut.lists[b] {
						if gs[a].Part.GID(gs[a].mirrorsOut.lists[b][i]) != gs[b].Part.GID(gs[b].mastersOut.lists[a][i]) {
							t.Fatalf("pair (%d,%d): mirrorsOut misaligned at %d", a, b, i)
						}
					}
				}
				if err := gs[a].VerifyMemoization(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStructuralPatternsPerPolicy: the §3.2 table — which sync patterns a
// push-style (write-at-destination, read-at-source) field needs under each
// policy.
func TestStructuralPatternsPerPolicy(t *testing.T) {
	cases := []struct {
		kind          partition.Kind
		wantReduce    bool
		wantBroadcast bool
	}{
		{partition.OEC, true, false}, // reduce only
		{partition.IEC, false, true}, // broadcast only
		{partition.CVC, true, true},  // both, on subsets
		{partition.HVC, true, true},  // both
	}
	for _, c := range cases {
		t.Run(string(c.kind), func(t *testing.T) {
			gs := buildCluster(t, c.kind, 4, Opt())
			anyReduce, anyBroadcast := false, false
			for _, g := range gs {
				send, recv := g.peersForReduce(AtDestination, g.Opt.StructuralInvariants)
				anyReduce = anyReduce || countAll(send.lists)+countAll(recv.lists) > 0
				send, recv = g.peersForBroadcast(AtSource, g.Opt.StructuralInvariants)
				anyBroadcast = anyBroadcast || countAll(send.lists)+countAll(recv.lists) > 0
			}
			if anyReduce != c.wantReduce {
				t.Errorf("reduce needed = %v, want %v", anyReduce, c.wantReduce)
			}
			if anyBroadcast != c.wantBroadcast {
				t.Errorf("broadcast needed = %v, want %v", anyBroadcast, c.wantBroadcast)
			}
		})
	}
}

// TestCVCSubsetsAreProper: under CVC, the structurally-pruned mirror sets
// are strictly smaller than the full mirror sets (the whole point of OSI).
func TestCVCSubsetsAreProper(t *testing.T) {
	gs := buildCluster(t, partition.CVC, 4, Opt())
	var full, inSub, outSub int
	for _, g := range gs {
		for h := range g.mirrors.lists {
			full += len(g.mirrors.lists[h])
			inSub += len(g.mirrorsIn.lists[h])
			outSub += len(g.mirrorsOut.lists[h])
		}
	}
	if inSub >= full || outSub >= full {
		t.Fatalf("cvc subsets not proper: full=%d in=%d out=%d", full, inSub, outSub)
	}
	if inSub+outSub != full {
		// Under CVC a mirror has in- xor out-edges (or neither, if it only
		// exists... it can't: a proxy exists because an edge touches it).
		t.Fatalf("cvc: in+out=%d != full=%d", inSub+outSub, full)
	}
}

// TestPartnersShrinkWithOptimizations: the §5.6 partner-count effect —
// structural invariants never increase, and under CVC strictly decrease,
// the set of hosts a broadcast touches compared to the all-mirrors pattern.
func TestPartnersShrinkWithOptimizations(t *testing.T) {
	const hosts = 9 // 3x3 CVC grid
	optOn := buildCluster(t, partition.CVC, hosts, Opt())
	optOff := buildCluster(t, partition.CVC, hosts, Options{TemporalInvariance: true})

	// A broadcast partner is a peer this host sends masters to or receives
	// mirrors from for a field read at the source.
	partners := func(g *Gluon) (n int) {
		send, recv := g.peersForBroadcast(AtSource, g.Opt.StructuralInvariants)
		for h := range send.lists {
			if h != g.HostID() && len(send.lists[h])+len(recv.lists[h]) > 0 {
				n++
			}
		}
		return n
	}
	var onMax, offMax int
	for h := 0; h < hosts; h++ {
		bOn, bOff := partners(optOn[h]), partners(optOff[h])
		if bOn > onMax {
			onMax = bOn
		}
		if bOff > offMax {
			offMax = bOff
		}
		if bOn > bOff {
			t.Fatalf("host %d: optimized broadcast partners %d exceed unoptimized %d", h, bOn, bOff)
		}
	}
	if onMax >= offMax {
		t.Fatalf("CVC broadcast partners did not shrink: opt %d vs unopt %d", onMax, offMax)
	}
	t.Logf("max broadcast partners: optimized %d, unoptimized %d (of %d possible)", onMax, offMax, hosts-1)
}

// fakeGluon builds a 1-host Gluon for encode/decode testing (no peers, so
// memoization is trivial).
func fakeGluon(t *testing.T, opt Options) *Gluon {
	t.Helper()
	gs := buildClusterSingle(t, opt)
	return gs
}

func buildClusterSingle(t *testing.T, opt Options) *Gluon {
	t.Helper()
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	pol, err := partition.NewPolicy(partition.OEC, 4, 1, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(4, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	hub := comm.NewHub(1)
	t.Cleanup(hub.Close)
	g, err := New(parts[0], hub.Endpoint(0), opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEncodeDecodeRoundTripModes: every encoding mode reproduces exactly
// the updated (position, value) pairs.
func TestEncodeDecodeRoundTripModes(t *testing.T) {
	g := fakeGluon(t, Opt())
	// Order over the local proxies of the single host (all masters).
	n := int(g.Part.NumProxies())
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	vals := []uint32{100, 200, 300, 400}

	cases := []struct {
		name    string
		updated []uint32 // nil means all
	}{
		{"empty", []uint32{}},
		{"one", []uint32{2}},
		{"some", []uint32{0, 3}},
		{"all-dense", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var upd *bitset.Bitset
			want := map[uint32]uint32{}
			if c.updated != nil {
				upd = bitset.New(uint32(n))
				for _, i := range c.updated {
					upd.SetUnsync(i)
					want[i] = vals[i]
				}
			} else {
				for i, v := range vals {
					want[uint32(i)] = v
				}
			}
			payload, sent := encodeForTest(g, order, upd, func(lid uint32) uint32 { return vals[lid] })
			if c.updated != nil && len(sent) < len(c.updated) {
				t.Fatalf("sent %d lids, want at least %d", len(sent), len(c.updated))
			}
			if c.updated != nil && payload[0] != modeDense && len(sent) != len(c.updated) {
				t.Fatalf("sparse mode sent %d lids, want exactly %d", len(sent), len(c.updated))
			}
			got := map[uint32]uint32{}
			if err := decodeEach(g, payload, order, func(lid uint32, v uint32) {
				got[lid] = v
			}); err != nil {
				t.Fatal(err)
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("lid %d: got %d, want %d", k, got[k], v)
				}
			}
			// Dense mode may deliver extra (unchanged) values; sparse modes
			// must deliver exactly the updates.
			if payload[0] == modeBitvec || payload[0] == modeIndices || payload[0] == modeGIDs {
				if len(got) != len(want) {
					t.Fatalf("sparse mode delivered %d values, want %d", len(got), len(want))
				}
			}
		})
	}
}

// TestEncodeModeSelection: the encoder picks the expected mode by density
// of updates over a 1024-proxy order.
func TestEncodeModeSelection(t *testing.T) {
	g := mustSingleGluon(t)
	order := make([]uint32, 1024)
	for i := range order {
		order[i] = uint32(2 * i) // strictly ascending, as every memoized order is
	}
	extract := extractFunc[uint32](func(lid uint32) uint32 { return lid })
	updated := func(k int) *bitset.Bitset {
		b := bitset.New(g.Part.NumProxies())
		for _, lid := range order[:k] {
			b.SetUnsync(lid)
		}
		return b
	}
	for _, c := range []struct {
		name string
		upd  *bitset.Bitset
		want byte
	}{
		{"nil updated", nil, modeDense},
		{"no updates", updated(0), modeEmpty},
		{"one update", updated(1), modeIndices}, // 13 B beats the 128 B bit-vector
		{"a tenth updated", updated(100), modeBitvec},
		{"all updated", updated(len(order)), modeDense},
	} {
		payload, _ := encodeForTest(g, order, c.upd, extract)
		if payload[0] != c.want {
			t.Errorf("%s: mode %d, want %d", c.name, payload[0], c.want)
		}
		if c.want == modeEmpty && len(payload) != 1 {
			t.Errorf("%s: empty message is %d bytes", c.name, len(payload))
		}
	}
}

// TestUnoptUsesGIDPairs: with temporal invariance off, messages are
// (global-ID, value) pairs.
func TestUnoptUsesGIDPairs(t *testing.T) {
	g := fakeGluon(t, Options{})
	order := []uint32{0, 1, 2, 3}
	upd := bitset.New(g.Part.NumProxies())
	upd.SetUnsync(1)
	upd.SetUnsync(3)
	payload, sent := encodeForTest(g, order, upd, func(lid uint32) uint32 { return lid * 10 })
	if payload[0] != modeGIDs {
		t.Fatalf("mode %d, want gid-pairs", payload[0])
	}
	if len(sent) != 2 {
		t.Fatalf("sent %d", len(sent))
	}
	got := map[uint32]uint32{}
	if err := decodeEach(g, payload, order, func(lid, v uint32) { got[lid] = v }); err != nil {
		t.Fatal(err)
	}
	if got[1] != 10 || got[3] != 30 || len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	// No updates: a count of zero and no pairs.
	payload, sent = encodeForTest(g, order, bitset.New(g.Part.NumProxies()), func(lid uint32) uint32 { return 0 })
	if len(payload) != 5 || len(sent) != 0 {
		t.Fatalf("empty gid-pairs message: %d bytes, %d sent", len(payload), len(sent))
	}
}

// TestDecodeRejectsCorruptMessages: malformed payloads error rather than
// panic or corrupt state.
func TestDecodeRejectsCorruptMessages(t *testing.T) {
	g := fakeGluon(t, Opt())
	order := []uint32{0, 1, 2, 3}
	applied := 0
	apply := func(lid, v uint32) { applied++ }
	cases := [][]byte{
		{},                        // empty payload
		{99},                      // unknown mode
		{modeDense, 1, 2},         // dense with wrong length
		{modeBitvec, 1},           // short bitvec
		{modeIndices, 1, 0, 0, 0}, // indices count without body
		{modeGIDs, 2},             // short gid header
	}
	for i, payload := range cases {
		if err := decodeEach(g, payload, order, apply); err == nil {
			t.Errorf("case %d: corrupt payload accepted", i)
		}
	}
	// Mode byte 5 was the DEFLATE wrapper of older builds
	// ([5][uncompressed length uint32][stream]); it is no longer a mode.
	old := []byte{5, 16, 0, 0, 0, 0x63, 0x60, 0x80, 0x01, 0x00}
	if err := decodeEach(g, old, order, apply); err == nil || !strings.Contains(err.Error(), "unknown message mode 5") {
		t.Errorf("mode-5 message: error %v, want unknown message mode 5", err)
	}
	// Indices out of range.
	payload, _ := encodeForTest(g, order, func() *bitset.Bitset {
		b := bitset.New(g.Part.NumProxies())
		b.SetUnsync(0)
		return b
	}(), func(lid uint32) uint32 { return 0 })
	if payload[0] == modeIndices {
		payload[5] = 200 // out-of-range position
		if err := decodeEach(g, payload, order, apply); err == nil {
			t.Error("out-of-range index accepted")
		}
	}
	if applied != 0 {
		t.Errorf("%d values applied from rejected messages", applied)
	}
}

// TestQuickEncodeDecodeRoundTrip: arbitrary update subsets and uint64
// values survive encoding under the optimized wire format.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	g := fakeGluon(t, Opt())
	order := []uint32{0, 1, 2, 3}
	f := func(updMask uint8, v0, v1, v2, v3 uint64) bool {
		vals := []uint64{v0, v1, v2, v3}
		upd := bitset.New(g.Part.NumProxies())
		want := map[uint32]uint64{}
		for i := uint32(0); i < 4; i++ {
			if updMask&(1<<i) != 0 {
				upd.SetUnsync(i)
				want[i] = vals[i]
			}
		}
		payload, _ := encodeForTest(g, order, upd, func(lid uint32) uint64 { return vals[lid] })
		got := map[uint32]uint64{}
		if err := decodeEach(g, payload, order, func(lid uint32, v uint64) { got[lid] = v }); err != nil {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAccounting: encode updates the mode counters and byte split.
func TestStatsAccounting(t *testing.T) {
	g := fakeGluon(t, Opt())
	order := []uint32{0, 1, 2, 3}
	encodeForTest(g, order, nil, func(lid uint32) uint32 { return 0 })
	s := g.Stats()
	if s.MessagesSent != 1 || s.ModeCounts[modeDense] != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.ValueBytes != 16 || s.MetadataBytes != 1 {
		t.Fatalf("byte split: values=%d metadata=%d", s.ValueBytes, s.MetadataBytes)
	}
}

// TestValueCodec: every Value type round-trips through putVals/getVals at
// its wire size, at a stride wider than the value (the gid-pairs layout).
func TestValueCodec(t *testing.T) {
	checkCodec[uint32](t, []uint32{0xdeadbeef, 7}, 4)
	checkCodec[int32](t, []int32{-7, 1 << 30}, 4)
	checkCodec[float32](t, []float32{1.5, float32(math.Inf(-1))}, 4)
	checkCodec[uint64](t, []uint64{1 << 60, 3}, 8)
	checkCodec[int64](t, []int64{-1 << 40, 5}, 8)
	checkCodec[float64](t, []float64{3.14159, math.Copysign(0, -1)}, 8)
}

func checkCodec[V Value](t *testing.T, vals []V, size int) {
	t.Helper()
	if wireSize[V]() != size {
		t.Errorf("%T: wire size %d, want %d", vals[0], wireSize[V](), size)
	}
	const off, stride = 3, 13
	buf := make([]byte, off+stride*len(vals))
	putVals(buf, off, stride, vals)
	got := make([]V, len(vals))
	getVals(buf, off, stride, got)
	for i := range vals {
		if got[i] != vals[i] || math.Signbit(float64(got[i])) != math.Signbit(float64(vals[i])) {
			t.Errorf("%T: put %v, got %v back", vals[i], vals[i], got[i])
		}
	}
}

func TestNewRejectsMismatchedTransport(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}}
	pol, _ := partition.NewPolicy(partition.OEC, 2, 2, partition.Options{})
	parts, err := partition.PartitionAll(2, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	hub := comm.NewHub(2)
	defer hub.Close()
	// Partition for host 1 with transport of host 0.
	if _, err := New(parts[1], hub.Endpoint(0), Opt()); err == nil {
		t.Fatal("mismatched host IDs accepted")
	}
}

// encodeForTest drives encodeMsg the way the sync path does — order mask,
// fresh scratch, worker-local stats folded into the instance — so codec
// tests exercise the production configuration without pooling.
func encodeForTest[V Value](g *Gluon, order []uint32, upd *bitset.Bitset, src extractFunc[V]) ([]byte, []uint32) {
	payload, sent, ms := encodeMsg(g, order, bitset.NewOrderMask(order), upd, src, &encodeScratch{})
	var st Stats
	st.addMsg(&ms)
	g.foldStats(&st)
	return payload, sent
}

// extractFunc adapts a per-lid function into the extractor encodeMsg reads
// values through.
type extractFunc[V Value] func(lid uint32) V

func (f extractFunc[V]) Extract(lids []uint32, dst []V) {
	for i, lid := range lids {
		dst[i] = f(lid)
	}
}

// decodeEach decodes payload the way the receive loop does and hands fn the
// (lid, value) pairs in wire order; nothing is handed over on an error.
func decodeEach[V Value](g *Gluon, payload []byte, order []uint32, fn func(lid uint32, v V)) error {
	lids, vals, err := decodeBody[V](g, payload, order, &peerScratch{})
	for i, lid := range lids {
		fn(lid, vals[i])
	}
	return err
}

func ExampleOpt() {
	o := Opt()
	fmt.Println(o.StructuralInvariants, o.TemporalInvariance)
	// Output: true true
}
