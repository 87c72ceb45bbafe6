package generate

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"gluon/internal/graph"
)

func TestDeterminism(t *testing.T) {
	for _, kind := range []string{"rmat", "kron", "webcrawl", "twitterlike", "random"} {
		cfg := Config{Kind: kind, Scale: 10, EdgeFactor: 4, Seed: 123, Weighted: true}
		a, err := Edges(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ: %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", kind, i, a[i], b[i])
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := Edges(Config{Kind: "rmat", Scale: 10, EdgeFactor: 4, Seed: 1})
	b, _ := Edges(Config{Kind: "rmat", Scale: 10, EdgeFactor: 4, Seed: 2})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical edge lists")
	}
}

func TestNodeRangeAndCount(t *testing.T) {
	for _, kind := range []string{"rmat", "kron", "webcrawl", "twitterlike", "random"} {
		cfg := Config{Kind: kind, Scale: 9, EdgeFactor: 8, Seed: 7}
		edges, err := Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(edges)) != cfg.NumEdges() {
			t.Fatalf("%s: %d edges, want %d", kind, len(edges), cfg.NumEdges())
		}
		n := cfg.NumNodes()
		for _, e := range edges {
			if e.Src >= n || e.Dst >= n {
				t.Fatalf("%s: edge (%d,%d) out of range n=%d", kind, e.Src, e.Dst, n)
			}
		}
	}
}

func TestWeights(t *testing.T) {
	cfg := Config{Kind: "random", Scale: 10, EdgeFactor: 4, Seed: 3, Weighted: true, MaxWeight: 50}
	edges, err := Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, e := range edges {
		if e.Weight < 1 || e.Weight > 50 {
			t.Fatalf("weight %d out of [1,50]", e.Weight)
		}
		seen[e.Weight] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct weights; generator looks broken", len(seen))
	}
}

func TestUnweightedHasZeroWeights(t *testing.T) {
	edges, err := Edges(Config{Kind: "random", Scale: 8, EdgeFactor: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if e.Weight != 0 {
			t.Fatal("unweighted generation produced weights")
		}
	}
}

func TestChain(t *testing.T) {
	edges, err := Edges(Config{Kind: "chain", Scale: 4, EdgeFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 15 {
		t.Fatalf("chain(16) has %d edges", len(edges))
	}
	for i, e := range edges {
		if e.Src != uint64(i) || e.Dst != uint64(i+1) {
			t.Fatalf("chain edge %d = %v", i, e)
		}
	}
}

func TestStar(t *testing.T) {
	edges, err := Edges(Config{Kind: "star", Scale: 5, EdgeFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 31 {
		t.Fatalf("star(32) has %d edges", len(edges))
	}
	for _, e := range edges {
		if e.Src != 0 {
			t.Fatalf("star edge source %d != 0", e.Src)
		}
	}
}

func TestGridIsSymmetricMesh(t *testing.T) {
	cfg := Config{Kind: "grid", Scale: 8} // 16x16
	edges, err := Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 directions * (side*(side-1)) horizontal + same vertical.
	side := 16
	want := 2 * 2 * side * (side - 1)
	if len(edges) != want {
		t.Fatalf("grid edges = %d, want %d", len(edges), want)
	}
	// Every edge has its reverse.
	set := map[graph.Edge]bool{}
	for _, e := range edges {
		set[graph.Edge{Src: e.Src, Dst: e.Dst}] = true
	}
	for _, e := range edges {
		if !set[graph.Edge{Src: e.Dst, Dst: e.Src}] {
			t.Fatalf("grid missing reverse of %v", e)
		}
	}
}

// edgeHash is the FNV-1a hash the repository's benchmark records as
// edge_hash: (src, dst u64, weight u32) little-endian per edge, in order.
func edgeHash(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var buf [20]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(buf[0:], e.Src)
		binary.LittleEndian.PutUint64(buf[8:], e.Dst)
		binary.LittleEndian.PutUint32(buf[16:], e.Weight)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSizedGeneratorsKeepOrder: the generators that know their edge count
// preallocate exactly it, and their output — order included — is pinned by
// hash (grid, chain and star are independent of the seed and core count).
func TestSizedGeneratorsKeepOrder(t *testing.T) {
	for _, c := range []struct {
		kind  string
		scale uint
		edges int
		hash  uint64
	}{
		{"grid", 8, 4 * 16 * 15, 0x891ced8380954425},
		{"grid", 10, 4 * 32 * 31, 0x86b4195dcc051525},
		{"chain", 8, 255, 0x6eb916051e48e2ea},
		{"star", 8, 255, 0x0e1ff08b429fba15},
	} {
		edges, err := Edges(Config{Kind: c.kind, Scale: c.scale})
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) != c.edges || cap(edges) != c.edges {
			t.Errorf("%s scale %d: len %d cap %d, want exactly %d", c.kind, c.scale, len(edges), cap(edges), c.edges)
		}
		if got := edgeHash(edges); got != c.hash {
			t.Errorf("%s scale %d: edge hash %#016x, want %#016x", c.kind, c.scale, got, c.hash)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := Edges(Config{Kind: "nope", Scale: 4}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestSkewShapes verifies the degree-skew intent of the crawl generators:
// webcrawl has a heavier in-degree tail than out-degree; twitterlike the
// reverse (compare the paper's Table 1: clueweb12 max-Din 75M vs max-Dout
// 7447; twitter40 max-Dout 2.99M vs max-Din 0.77M).
func TestSkewShapes(t *testing.T) {
	build := func(kind string) graph.Properties {
		cfg := Config{Kind: kind, Scale: 13, EdgeFactor: 16, Seed: 11}
		edges, err := Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
		if err != nil {
			t.Fatal(err)
		}
		return g.Stats()
	}
	wc := build("webcrawl")
	if wc.MaxInDeg <= wc.MaxOutDeg {
		t.Errorf("webcrawl: max in-degree %d not above max out-degree %d", wc.MaxInDeg, wc.MaxOutDeg)
	}
	tw := build("twitterlike")
	if tw.MaxOutDeg <= tw.MaxInDeg {
		t.Errorf("twitterlike: max out-degree %d not above max in-degree %d", tw.MaxOutDeg, tw.MaxInDeg)
	}
}

// TestRMATSkew checks the rmat generator produces a hub (graph500
// initiator matrices concentrate edges heavily).
func TestRMATSkew(t *testing.T) {
	cfg := Config{Kind: "rmat", Scale: 12, EdgeFactor: 16, Seed: 5}
	edges, _ := Edges(cfg)
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if float64(s.MaxOutDeg) < 8*s.AvgDegree {
		t.Errorf("rmat max out-degree %d vs avg %.1f: no skew", s.MaxOutDeg, s.AvgDegree)
	}
}

func TestRNGUint64n(t *testing.T) {
	r := newRNG(9)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) = %d", v)
		}
	}
	// Rough uniformity over a small modulus.
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[r.Uint64n(4)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Uint64n(4) bucket %d count %d far from uniform", i, c)
		}
	}
}

func BenchmarkRMAT(b *testing.B) { benchmarkEdges(b, "rmat") }

func BenchmarkWebcrawl(b *testing.B) { benchmarkEdges(b, "webcrawl") }

// benchmarkEdges times Edges on a 2^14-node, 2^18-edge graph of one kind
// and reports the cost per edge generated.
func benchmarkEdges(b *testing.B, kind string) {
	cfg := Config{Kind: kind, Scale: 14, EdgeFactor: 16, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Edges(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cfg.NumEdges()), "ns/edge")
}

// TestSameGraphAtEveryCoreCount: every kind, weighted and not, is one edge
// list — pinned by hash — whether one, two or four workers fill it. The
// sized kinds span four stream blocks, so with more than one worker the
// blocks really are filled concurrently and out of order.
func TestSameGraphAtEveryCoreCount(t *testing.T) {
	want := map[string][2]uint64{ // kind → {unweighted, weighted}
		"rmat":        {0x6a53b54eb8f9e6bc, 0x03d802a3a7aa06c5},
		"kron":        {0x3b4b51e8ae10350e, 0xebceb06b4fce76cf},
		"webcrawl":    {0xc2ee9312ff3bd429, 0xc7ae11068530a758},
		"twitterlike": {0x9ac8c330d0139e48, 0x20140723e26238f5},
		"random":      {0x73c6e6442625f864, 0x5a729c9dfcacd4cd},
		"grid":        {0x5a502483302ab025, 0x33fdd3480ca12c2b},
		"chain":       {0x3f064bc36c0708cf, 0x6ccf754b3a5125e0},
		"star":        {0x99290bd71c8c9415, 0x717c93821a1c44ea},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for kind, hashes := range want {
			for w, weighted := range []bool{false, true} {
				edges, err := Edges(Config{Kind: kind, Scale: 14, EdgeFactor: 16, Seed: 42, Weighted: weighted})
				if err != nil {
					t.Fatal(err)
				}
				if got := edgeHash(edges); got != hashes[w] {
					t.Errorf("%s weighted=%v at GOMAXPROCS=%d: edge hash %#016x, want %#016x", kind, weighted, procs, got, hashes[w])
				}
			}
		}
	}
}

// TestLaneTailAtEveryCoreCount pins rmat and kron on shapes whose second
// stream block ends in a part of a lane group (2 and 4 edges past the first
// 2^16), so the last edges go through the kernel with fewer lanes. The
// hashes were taken from the edge-at-a-time generator the kernel replaced.
func TestLaneTailAtEveryCoreCount(t *testing.T) {
	want := []struct {
		kind      string
		scale, ef uint
		hashes    [2]uint64 // {unweighted, weighted}
	}{
		{"rmat", 1, 32769, [2]uint64{0xccdda7c9e25fa1d5, 0xa02f8e67d3019fae}},
		{"kron", 1, 32769, [2]uint64{0xafa6b714027633f5, 0x3709304d48904bce}},
		{"rmat", 2, 16385, [2]uint64{0x10707aeeb7193665, 0xe521ff46a39ec1da}},
		{"kron", 2, 16385, [2]uint64{0xadf149fc4156f194, 0xc349c1915301bf0b}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range want {
			for w, weighted := range []bool{false, true} {
				edges, err := Edges(Config{Kind: c.kind, Scale: c.scale, EdgeFactor: c.ef, Seed: 42, Weighted: weighted})
				if err != nil {
					t.Fatal(err)
				}
				if got := edgeHash(edges); got != c.hashes[w] {
					t.Errorf("%s scale %d ef %d weighted=%v at GOMAXPROCS=%d: edge hash %#016x, want %#016x",
						c.kind, c.scale, c.ef, weighted, procs, got, c.hashes[w])
				}
			}
		}
	}
}

// rmatEdgeOracle is the edge-at-a-time rmat walk that the lane kernel
// replaced: one Float64 per quadrant draw and per noise draw, in stream
// order, and a switch per level.
func rmatEdgeOracle(r *rng, scale uint, n uint64, a, b, c, d float64, noise bool) (uint64, uint64) {
	var src, dst uint64
	pa, pb, pc := a, b, c
	for level := uint(0); level < scale; level++ {
		x := r.Float64()
		switch {
		case x < pa:
		case x < pa+pb:
			dst |= 1 << level
		case x < pa+pb+pc:
			src |= 1 << level
		default:
			src |= 1 << level
			dst |= 1 << level
		}
		if noise {
			na := pa * (0.9 + 0.2*r.Float64())
			nb := pb * (0.9 + 0.2*r.Float64())
			nc := pc * (0.9 + 0.2*r.Float64())
			nd := d * (0.9 + 0.2*r.Float64())
			s := na + nb + nc + nd
			pa, pb, pc = na/s, nb/s, nc/s
		}
	}
	return src % n, dst % n
}

// TestRMATMatchesOracle: rmat and kron equal the edge-at-a-time oracle edge
// for edge, at scales 0 to 16, with lane tails of 5, 6, 4 and 2 edges and
// with a second stream block.
func TestRMATMatchesOracle(t *testing.T) {
	for _, noise := range []bool{true, false} {
		kind := map[bool]string{true: "rmat", false: "kron"}[noise]
		for _, shape := range [][2]uint{{0, 5}, {1, 3}, {2, 1}, {3, 3}, {9, 7}, {1, 32769}, {16, 2}} {
			c := Config{Kind: kind, Scale: shape[0], EdgeFactor: shape[1], Seed: uint64(shape[0])*31 + 7}
			edges, err := Edges(c)
			if err != nil {
				t.Fatal(err)
			}
			var r *rng
			for i, e := range edges {
				if i%blockEdges == 0 {
					r = newRNG(c.Seed ^ 0x25a7 ^ uint64(i/blockEdges)*0x9e3779b97f4a7c15)
				}
				src, dst := rmatEdgeOracle(r, c.Scale, c.NumNodes(), ProbA, ProbB, ProbC, ProbD, noise)
				if e.Src != src || e.Dst != dst {
					t.Fatalf("%s scale %d ef %d: edge %d is (%d,%d), oracle (%d,%d)", kind, c.Scale, c.EdgeFactor, i, e.Src, e.Dst, src, dst)
				}
			}
		}
	}
}

// TestOversizedConfigsFail: a scale whose node count or edge count does not
// fit is an error from every kind, before anything is allocated. (1<<64
// nodes is 0 in a uint64, and 2^63 nodes × 16 edges wraps to 0 edges.)
func TestOversizedConfigsFail(t *testing.T) {
	for _, kind := range []string{"rmat", "kron", "webcrawl", "twitterlike", "random", "grid", "chain", "star"} {
		for _, scale := range []uint{63, 64} {
			for _, ef := range []uint{0, 1} {
				edges, err := Edges(Config{Kind: kind, Scale: scale, EdgeFactor: ef})
				if err == nil || edges != nil {
					t.Errorf("%s scale %d edge factor %d: %d edges, err %v; want an error", kind, scale, ef, len(edges), err)
				}
			}
		}
	}
}
