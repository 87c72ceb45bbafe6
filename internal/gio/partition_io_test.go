package gio_test

import (
	"bytes"
	"testing"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gio"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

func buildParts(t *testing.T, hosts int) (uint64, []graph.Edge, *graph.CSR, []*partition.Partition) {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 14}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := partition.NewPolicy(partition.CVC, cfg.NumNodes(), hosts, partition.Degrees(cfg.NumNodes(), edges))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(cfg.NumNodes(), edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.NumNodes(), edges, g, parts
}

// TestPartitionRoundTrip: serialized partitions reload with identical
// structure.
func TestPartitionRoundTrip(t *testing.T) {
	_, _, _, parts := buildParts(t, 4)
	for _, p := range parts {
		var buf bytes.Buffer
		if err := gio.WritePartition(&buf, p); err != nil {
			t.Fatal(err)
		}
		got, err := gio.ReadPartition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.HostID != p.HostID || got.NumHosts != p.NumHosts ||
			got.NumMasters != p.NumMasters || got.GlobalNodes != p.GlobalNodes {
			t.Fatalf("header mismatch: %+v vs %+v", got, p)
		}
		if got.Policy.Name() != p.Policy.Name() {
			t.Fatalf("policy %s vs %s", got.Policy.Name(), p.Policy.Name())
		}
		if got.Graph.NumEdges() != p.Graph.NumEdges() {
			t.Fatalf("edges %d vs %d", got.Graph.NumEdges(), p.Graph.NumEdges())
		}
		for lid := uint32(0); lid < p.NumProxies(); lid++ {
			if got.GID(lid) != p.GID(lid) {
				t.Fatalf("gid[%d] differs", lid)
			}
			if got.HasIn.Test(lid) != p.HasIn.Test(lid) || got.HasOut.Test(lid) != p.HasOut.Test(lid) {
				t.Fatalf("structural flags differ at %d", lid)
			}
		}
		// Owner queries must survive through the frozen policy.
		for lid := uint32(0); lid < p.NumProxies(); lid++ {
			if got.Policy.Owner(got.GID(lid)) != p.Policy.Owner(p.GID(lid)) {
				t.Fatalf("owner of %d differs", p.GID(lid))
			}
		}
	}
}

// TestLoadedPartitionsRun: a full distributed bfs over reloaded partitions
// produces correct results — the offline-partitioning workflow end to end.
func TestLoadedPartitionsRun(t *testing.T) {
	numNodes, _, g, parts := buildParts(t, 4)
	_ = numNodes
	reloaded := make([]*partition.Partition, len(parts))
	for i, p := range parts {
		var buf bytes.Buffer
		if err := gio.WritePartition(&buf, p); err != nil {
			t.Fatal(err)
		}
		rp, err := gio.ReadPartition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		reloaded[i] = rp
	}
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)
	res, err := dsys.RunPartitioned(reloaded, dsys.RunConfig{
		Hosts: 4, Policy: partition.CVC, Opt: gluon.Opt(), CollectValues: true,
	}, bfs.NewGalois(uint64(source), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if float64(w) != res.Values[i] {
			t.Fatalf("node %d: got %v, want %d", i, res.Values[i], w)
		}
	}
}

func TestReadPartitionRejectsGarbage(t *testing.T) {
	if _, err := gio.ReadPartition(bytes.NewReader([]byte("junkjunkjunkjunkjunkjunk"))); err == nil {
		t.Fatal("garbage accepted")
	}
	_, _, _, parts := buildParts(t, 2)
	var buf bytes.Buffer
	if err := gio.WritePartition(&buf, parts[0]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := gio.ReadPartition(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated partition accepted")
	}
}

// FuzzReadPartition: a partition file decodes to a partition or an error,
// whatever its header claims — through ReadBinary for the local graph and
// partition.Reassemble for the layout checks — and a partition it accepts
// writes back to bytes that read again to the same bytes.
func FuzzReadPartition(f *testing.F) {
	pol, err := partition.NewPolicy(partition.OEC, 8, 2, partition.Options{})
	if err != nil {
		f.Fatal(err)
	}
	parts, err := partition.PartitionAll(8, []graph.Edge{{Src: 0, Dst: 5, Weight: 3}, {Src: 6, Dst: 1}, {Src: 2, Dst: 7}}, pol)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range parts {
		var buf bytes.Buffer
		if err := gio.WritePartition(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3])
	}
	f.Add([]byte("GLPT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := gio.ReadPartition(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := gio.WritePartition(&once, p); err != nil {
			t.Fatal(err)
		}
		q, err := gio.ReadPartition(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("an accepted partition does not read back: %v", err)
		}
		if err := gio.WritePartition(&twice, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("write → read → write changed the bytes")
		}
	})
}
