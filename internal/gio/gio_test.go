package gio

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"gluon/internal/generate"
	"gluon/internal/graph"
)

func TestEdgeListRoundTrip(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, Weight: 5}, {Src: 7, Dst: 3, Weight: 9}}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, edges, true); err != nil {
		t.Fatal(err)
	}
	got, n, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("implied node count = %d, want 8", n)
	}
	if len(got) != 2 || got[0] != edges[0] || got[1] != edges[1] {
		t.Fatalf("roundtrip = %v", got)
	}
}

func TestEdgeListUnweighted(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, []graph.Edge{{Src: 1, Dst: 2}}, false); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Weight != 0 {
		t.Fatalf("weight = %d", got[0].Weight)
	}
}

func TestEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n% matrix-market style\n1 2\n 3 4 7 \n"
	got, n, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || n != 5 {
		t.Fatalf("got %v, n=%d", got, n)
	}
	if got[1].Weight != 7 {
		t.Fatalf("weight = %d", got[1].Weight)
	}
}

func TestEdgeListErrors(t *testing.T) {
	cases := []string{"1\n", "a b\n", "1 b\n", "1 2 x\n"}
	for _, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestEmptyEdgeList(t *testing.T) {
	got, n, err := ReadEdgeList(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || n != 0 {
		t.Fatalf("got %v, n=%d", got, n)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	cfg := generate.Config{Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 4, Weighted: true}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch")
	}
	for i := range g.Offsets {
		if g.Offsets[i] != got.Offsets[i] {
			t.Fatalf("offset %d differs", i)
		}
	}
	for i := range g.Dst {
		if g.Dst[i] != got.Dst[i] || g.Weights[i] != got.Weights[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid magic, wrong version.
	var buf bytes.Buffer
	g := graph.Build(2, []graph.LocalEdge{{Src: 0, Dst: 1}}, false)
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	g := graph.Build(4, []graph.LocalEdge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}, false)
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{8, 20, len(data) - 2} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestBinaryHugeCountRefused: a header may claim any edge count; the reader
// fails where the bytes run out instead of allocating what it claims.
func TestBinaryHugeCountRefused(t *testing.T) {
	data := binary.LittleEndian.AppendUint32(nil, Magic)
	data = binary.LittleEndian.AppendUint32(data, Version)
	data = binary.LittleEndian.AppendUint32(data, flagWeighted)
	data = binary.LittleEndian.AppendUint64(data, 2)     // nodes
	data = binary.LittleEndian.AppendUint64(data, 1<<62) // edges
	data = append(data, make([]byte, 3*8+16)...)         // offsets, then four edges
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("a graph claiming 1<<62 edges in a few bytes was accepted")
	}
}

// TestQuickTextRoundTrip: arbitrary edge lists survive the text format.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		edges := make([]graph.Edge, 0, len(raw)/3)
		for i := 0; i+2 < len(raw); i += 3 {
			edges = append(edges, graph.Edge{
				Src: uint64(raw[i]), Dst: uint64(raw[i+1]), Weight: uint32(raw[i+2]),
			})
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, edges, true); err != nil {
			return false
		}
		got, _, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	cfg := generate.Config{Kind: "rmat", Scale: 12, EdgeFactor: 8, Seed: 4}
	edges, _ := generate.Edges(cfg)
	g, _ := graph.FromEdges(cfg.NumNodes(), edges, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}
