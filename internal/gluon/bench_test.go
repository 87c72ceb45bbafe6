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
	extract := fields.Set[uint32](vals) // a real spec: one interface call per value, as in a sync
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
	extract := fields.Set[uint32](vals) // a real spec: one interface call per value, as in a sync
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
	extract := fields.Set[uint32](vals) // a real spec: one interface call per value, as in a sync
	payload, _, _ := encodeMsg(g, order, bitset.NewOrderMask(order), upd, extract, &encodeScratch{})
	b.ResetTimer()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := decodeMsg(g, payload, order, func(lid uint32, v uint32) {}); err != nil {
			b.Fatal(err)
		}
	}
}
