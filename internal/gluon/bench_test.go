package gluon

import (
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/fields"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

// mustSingleGluon builds a 1-host substrate for codec benchmarks.
func mustSingleGluon(tb testing.TB) *Gluon {
	tb.Helper()
	const n = 1 << 16
	edges := make([]graph.Edge, 0, n)
	for u := uint64(0); u+1 < n; u += 2 {
		edges = append(edges, graph.Edge{Src: u, Dst: u + 1})
	}
	pol, err := partition.NewPolicy(partition.OEC, n, 1, partition.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := partition.PartitionAll(n, edges, pol)
	if err != nil {
		tb.Fatal(err)
	}
	hub := comm.NewHub(1)
	tb.Cleanup(hub.Close)
	g, err := New(parts[0], hub.Endpoint(0), Opt())
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func benchGluon(b *testing.B) (*Gluon, []uint32, *bitset.Bitset, []uint32) {
	b.Helper()
	g := mustSingleGluon(b)
	n := g.Part.NumProxies()
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	vals := make([]uint32, n)
	upd := bitset.New(n)
	for i := uint32(0); i < n; i += 7 {
		upd.SetUnsync(i)
	}
	return g, order, upd, vals
}

func BenchmarkEncodeSparse(b *testing.B) {
	g, order, upd, vals := benchGluon(b)
	extract := fields.Set[uint32](vals) // a real spec: one interface call per message, as in a sync
	mask := bitset.NewOrderMask(order)
	sc := &encodeScratch{}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload, _, _ := encodeMsg(g, order, mask, upd, extract, sc)
		b.SetBytes(int64(len(payload)))
		comm.PutBuf(payload)
	}
}

func BenchmarkEncodeDense(b *testing.B) {
	g, order, _, vals := benchGluon(b)
	extract := fields.Set[uint32](vals) // a real spec: one interface call per message, as in a sync
	mask := bitset.NewOrderMask(order)
	sc := &encodeScratch{}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload, _, _ := encodeMsg(g, order, mask, nil, extract, sc)
		b.SetBytes(int64(len(payload)))
		comm.PutBuf(payload)
	}
}

func BenchmarkDecode(b *testing.B) {
	g, order, upd, vals := benchGluon(b)
	extract := fields.Set[uint32](vals) // a real spec: one interface call per message, as in a sync
	payload, _, _ := encodeMsg(g, order, bitset.NewOrderMask(order), upd, extract, &encodeScratch{})
	b.ResetTimer()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	ps := &peerScratch{}
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeBody[uint32](g, payload, order, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncHotPathValues prices the two per-value loops of a sync round
// on their own, in ns per shipped value: encode is what the send side does
// for one message (intersect, Extract, putVals, Reset, consuming the shipped
// bits), fold what the receive side does (decodeBody, Reduce, marking the
// changed masters). dense-f64-40k is one pagerank contrib message of the
// dense benchmark workload; indices-u32-64 is the bfs shape, where the
// per-message fixed cost is what shows.
func BenchmarkSyncHotPathValues(b *testing.B) {
	g := mustSingleGluon(b)
	ascending := func(count, step int) []uint32 {
		lids := make([]uint32, count)
		for i := range lids {
			lids[i] = uint32(i * step)
		}
		return lids
	}

	// Every proxy of the order updated, every master changed by the fold.
	benchValuePath(b, "dense-f64-40k", g, ascending(40000, 1), 40000, (*bitset.Bitset).SetAll,
		func() (ReduceSpec[float64], func()) {
			contrib := make([]float64, g.Part.NumProxies())
			for i := range contrib {
				contrib[i] = 0.5
			}
			return fields.Sum[float64](contrib), func() {}
		})

	// 64 of 4096 updated; the fold lowers all 64 masters, which are raised
	// back above the message's values before the next one.
	hot := ascending(64, 61)
	benchValuePath(b, "indices-u32-64", g, ascending(4096, 1), len(hot),
		func(upd *bitset.Bitset) {
			for _, lid := range hot {
				upd.SetUnsync(lid)
			}
		},
		func() (ReduceSpec[uint32], func()) {
			levels := make([]uint32, g.Part.NumProxies())
			return fields.Min[uint32](levels), func() {
				for _, lid := range hot {
					levels[lid] = 1
				}
			}
		})
}

// benchValuePath runs the encode and the fold half over one message shape:
// order is the memoized order, mark sets this round's k updated proxies in
// an empty bitset spanning the order, and field makes a fresh field for each
// half: its spec, and raise, which undoes what a fold did to the masters.
// mark and raise are not timed out — they are the same few stores on every
// side of a comparison.
func benchValuePath[V Value](b *testing.B, name string, g *Gluon, order []uint32, k int, mark func(*bitset.Bitset), field func() (spec ReduceSpec[V], raise func())) {
	omask := bitset.NewOrderMask(order)
	span := order[len(order)-1] + 1
	encode := func(spec ReduceSpec[V], upd *bitset.Bitset, sc *encodeScratch) []byte {
		mark(upd)
		payload, sent, _ := encodeMsg[V](g, order, omask, upd, spec, sc)
		if len(sent) != k {
			b.Fatalf("shipped %d values, want %d", len(sent), k)
		}
		spec.Reset(sent)
		omask.ClearIn(upd)
		return payload
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/value")
	}
	b.Run("encode/"+name, func(b *testing.B) {
		spec, _ := field()
		upd, sc := bitset.New(span), &encodeScratch{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comm.PutBuf(encode(spec, upd, sc))
		}
		report(b)
	})
	b.Run("fold/"+name, func(b *testing.B) {
		spec, raise := field()
		upd, ps := bitset.New(span), &peerScratch{}
		msg := encode(spec, upd, &encodeScratch{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			raise()
			upd.Reset() // masters start a round unmarked
			lids, vals, err := decodeBody[V](g, msg, order, ps)
			if err != nil {
				b.Fatal(err)
			}
			spec.Reduce(lids, vals, upd)
			if i == 0 && int(upd.Count()) != k {
				b.Fatalf("fold changed %d masters, want %d", upd.Count(), k)
			}
		}
		report(b)
	})
}
