package gluon_test

import (
	"hash/fnv"
	"math"
	"sync/atomic"
	"testing"

	"gluon/internal/algorithms/pr"
	"gluon/internal/autotune"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

// Vectored-wire-path sync tests: compressed messages ride SendVec (wrapper
// header + untouched deflate payload), so these pin that the receiver-visible
// bytes are identical across transports and that results stay correct over
// both the in-process hub and real TCP sockets.

// wireHashTransport folds a digest of every outgoing message — as the
// receiver will see it, header and payload coalesced — into acc, commutative
// so send order is irrelevant.
type wireHashTransport struct {
	comm.Transport
	acc *atomic.Uint64
}

func (h wireHashTransport) digest(to int, tag comm.Tag, header, payload []byte) {
	f := fnv.New64a()
	var meta [16]byte
	put32 := func(off int, v uint32) {
		meta[off] = byte(v)
		meta[off+1] = byte(v >> 8)
		meta[off+2] = byte(v >> 16)
		meta[off+3] = byte(v >> 24)
	}
	put32(0, uint32(h.Transport.HostID()))
	put32(4, uint32(to))
	put32(8, uint32(tag))
	put32(12, uint32(len(header)+len(payload)))
	f.Write(meta[:])
	f.Write(header)
	f.Write(payload)
	h.acc.Add(f.Sum64())
}

func (h wireHashTransport) Send(to int, tag comm.Tag, payload []byte) error {
	h.digest(to, tag, nil, payload)
	return h.Transport.Send(to, tag, payload)
}

func (h wireHashTransport) SendVec(to int, tag comm.Tag, header, payload []byte) error {
	h.digest(to, tag, header, payload)
	return h.Transport.SendVec(to, tag, header, payload)
}

// tcpMesh dials a hosts-wide TCP mesh on loopback; it closes with the test.
func tcpMesh(t *testing.T, hosts int) []comm.Transport {
	t.Helper()
	eps, _, err := comm.DialLoopbackMesh(hosts, comm.DialConfig{})
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
	return ts
}

func compressedRun(t *testing.T, ts []comm.Transport, parts []*partition.Partition,
	numNodes uint64, opt gluon.Options) *dsys.Result {
	t.Helper()
	res, err := dsys.RunWithTransports(parts, ts, dsys.RunConfig{
		Hosts: len(parts), Policy: partition.CVC, Opt: opt, MaxRounds: 30,
	}, pr.NewLigra(1e-6, 1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompressedWireBytesMatchAcrossTransports: with the static threshold
// (deterministic per message), the exact receiver-visible wire bytes of a
// compressed run are identical over the in-process hub (coalescing SendVec)
// and TCP (vectored writev SendVec) — the transport choice never leaks into
// what is shipped.
func TestCompressedWireBytesMatchAcrossTransports(t *testing.T) {
	cfg := generate.Config{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 61}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 4
	numNodes := cfg.NumNodes()
	outDeg := make([]uint32, numNodes)
	inDeg := make([]uint32, numNodes)
	for _, e := range edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts,
		partition.Options{OutDegrees: outDeg, InDegrees: inDeg})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	opt := gluon.Opt()
	opt.Compress = gluon.CompressAbove(128)

	var inprocHash, tcpHash atomic.Uint64

	hub := comm.NewHub(hosts)
	defer hub.Close()
	inprocTs := make([]comm.Transport, hosts)
	for i, e := range hub.Endpoints() {
		inprocTs[i] = wireHashTransport{Transport: e, acc: &inprocHash}
	}
	inprocRes := compressedRun(t, inprocTs, parts, numNodes, opt)

	tcpEps := tcpMesh(t, hosts)
	tcpTs := make([]comm.Transport, hosts)
	for i, e := range tcpEps {
		tcpTs[i] = wireHashTransport{Transport: e, acc: &tcpHash}
	}
	tcpRes := compressedRun(t, tcpTs, parts, numNodes, opt)

	var compressed uint64
	for _, h := range inprocRes.Hosts {
		compressed += h.Gluon.CompressedMessages
	}
	if compressed == 0 {
		t.Fatal("run shipped nothing compressed; the test exercises no vectored sends")
	}
	if inprocRes.Rounds != tcpRes.Rounds {
		t.Fatalf("rounds differ: inproc %d, tcp %d", inprocRes.Rounds, tcpRes.Rounds)
	}
	if ih, th := inprocHash.Load(), tcpHash.Load(); ih != th {
		t.Fatalf("wire bytes differ across transports: inproc %#x, tcp %#x", ih, th)
	}
}

// TestCompressedSyncOverTCP: a compressed pagerank over real sockets — the
// full vectored path, writev through the kernel and back — converges to the
// reference ranks.
func TestCompressedSyncOverTCP(t *testing.T) {
	cfg := generate.Config{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 62}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PageRank(g, pr.Alpha, 1e-9, 100)

	const hosts = 3
	numNodes := cfg.NumNodes()
	outDeg := make([]uint32, numNodes)
	inDeg := make([]uint32, numNodes)
	for _, e := range edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}
	pol, err := partition.NewPolicy(partition.CVC, numNodes, hosts,
		partition.Options{OutDegrees: outDeg, InDegrees: inDeg})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}

	opt := gluon.Opt()
	opt.Compress = gluon.CompressAbove(128)
	res, err := dsys.RunWithTransports(parts, tcpMesh(t, hosts), dsys.RunConfig{
		Hosts: hosts, Policy: partition.CVC, Opt: opt,
		CollectValues: true, MaxRounds: 100,
	}, pr.NewGalois(1e-9, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Abs(res.Values[i]-w) > 1e-6 {
			t.Fatalf("node %d: %g, want %g", i, res.Values[i], w)
		}
	}
	var compressed uint64
	for _, h := range res.Hosts {
		compressed += h.Gluon.CompressedMessages
	}
	if compressed == 0 {
		t.Fatal("no message went compressed over TCP")
	}
}

// TestAdaptiveCompressionPreservesResults: the CompressTuner policy decides
// per field and per host, and none of that affects correctness — a full
// pagerank matches the reference, with both shipped-compressed and skipped
// messages observed.
func TestAdaptiveCompressionPreservesResults(t *testing.T) {
	cfg := generate.Config{Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 63}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PageRank(g, pr.Alpha, 1e-9, 100)

	opt := gluon.Opt()
	opt.Compress = autotune.NewCompressTuner(autotune.CompressConfig{MinSize: 128})
	res, err := dsys.Run(cfg.NumNodes(), edges, dsys.RunConfig{
		Hosts: 4, Policy: partition.CVC, Opt: opt,
		CollectValues: true, MaxRounds: 100,
	}, pr.NewGalois(1e-9, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Abs(res.Values[i]-w) > 1e-6 {
			t.Fatalf("node %d: %g, want %g", i, res.Values[i], w)
		}
	}
	var compressed, skipped, saved uint64
	for _, h := range res.Hosts {
		compressed += h.Gluon.CompressedMessages
		skipped += h.Gluon.CompressSkipped
		saved += h.Gluon.CompressionSaved
	}
	if compressed == 0 {
		t.Fatal("adaptive policy never shipped a compressed message")
	}
	if skipped == 0 {
		t.Fatal("adaptive policy never skipped a message (below-MinSize traffic should skip)")
	}
	t.Logf("adaptive: %d compressed / %d skipped, %d bytes saved", compressed, skipped, saved)
}
