package irgl_test

import (
	"sync"
	"testing"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/engine/irgl"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

func TestBufferSpecsSatisfyGluonInterfaces(t *testing.T) {
	g := graph.Build(4, []graph.LocalEdge{{Src: 0, Dst: 1}}, false)
	d := irgl.New(g, 1)
	u32 := irgl.NewBuffer[uint32](d, 4)
	f64 := irgl.NewBuffer[float64](d, 4)
	var _ gluon.ReduceSpec[uint32] = irgl.MinBuf(u32)
	var _ gluon.BroadcastSpec[uint32] = irgl.SetBuf(u32)
	var _ gluon.BulkExtractor[uint32] = irgl.MinBuf(u32)
	var _ gluon.ReduceSpec[float64] = irgl.SumBuf(f64)
	var _ gluon.BroadcastSpec[float64] = irgl.SetBuf(f64)
	var _ gluon.BulkExtractor[float64] = irgl.SetBuf(f64)
}

// TestBufferSpecsDecorateHostSpecs: each device structure applies the
// fields reduction it wraps to device memory (the reductions themselves are
// tested in internal/fields) and accounts every crossing of the boundary —
// one element per Reduce/Set, one staged copy per bulk extract, nothing for
// a Reset.
func TestBufferSpecsDecorateHostSpecs(t *testing.T) {
	g := graph.Build(4, []graph.LocalEdge{{Src: 0, Dst: 1}}, false)
	d := irgl.New(g, 1)
	buf := irgl.NewBuffer[uint32](d, 4)
	for i := range buf.Data() {
		buf.Data()[i] = 100
	}
	fbuf := irgl.NewBuffer[float64](d, 4)
	min, set, sum := irgl.MinBuf(buf), irgl.SetBuf(buf), irgl.SumBuf(fbuf)
	for _, c := range []struct {
		name           string
		do             func() bool
		want           bool
		toDev, fromDev uint64 // bytes this step moves
		state          func() bool
	}{
		{"min lower", func() bool { return min.Reduce(1, 50) }, true, 4, 0, func() bool { return buf.Data()[1] == 50 }},
		{"min higher", func() bool { return min.Reduce(1, 60) }, false, 4, 0, func() bool { return buf.Data()[1] == 50 }},
		{"min reset keeps", func() bool { min.Reset(1); return false }, false, 0, 0, func() bool { return buf.Data()[1] == 50 }},
		{"set new", func() bool { return set.Set(2, 5) }, true, 4, 0, func() bool { return buf.Data()[2] == 5 }},
		{"set same", func() bool { return set.Set(2, 5) }, false, 4, 0, func() bool { return buf.Data()[2] == 5 }},
		{"extract one", func() bool { return set.Extract(2) == 5 }, true, 0, 4, nil},
		{"extract bulk", func() bool {
			out := min.ExtractBulk([]uint32{0, 1}, make([]uint32, 2))
			return out[0] == 100 && out[1] == 50
		}, true, 0, 8, nil},
		{"sum zero", func() bool { return sum.Reduce(0, 0) }, false, 8, 0, func() bool { return fbuf.Data()[0] == 0 }},
		{"sum add", func() bool { return sum.Reduce(0, 1.5) && sum.Reduce(0, 2.5) }, true, 16, 0, func() bool { return fbuf.Data()[0] == 4 }},
		{"sum reset zeroes", func() bool { sum.Reset(0); return false }, false, 0, 0, func() bool { return fbuf.Data()[0] == 0 }},
	} {
		before := d.Stats()
		if got := c.do(); got != c.want {
			t.Errorf("%s: returned %v, want %v", c.name, got, c.want)
		}
		if c.state != nil && !c.state() {
			t.Errorf("%s: device memory not as expected", c.name)
		}
		after := d.Stats()
		if to, from := after.BytesToDevice-before.BytesToDevice, after.BytesFromDevice-before.BytesFromDevice; to != c.toDev || from != c.fromDev {
			t.Errorf("%s: moved %d B to / %d B from the device, want %d / %d", c.name, to, from, c.toDev, c.fromDev)
		}
	}
}

// TestDeviceTransfersAccountedDuringSync: a real distributed run with the
// device engine must register host/device traffic via the bulk path.
func TestDeviceTransfersAccountedDuringSync(t *testing.T) {
	cfg := generate.Config{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 23}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)
	res, err := dsys.Run(cfg.NumNodes(), edges, dsys.RunConfig{
		Hosts: 4, Policy: partition.CVC, Opt: gluon.Opt(), CollectValues: true,
	}, bfs.NewIrGL(uint64(source), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if float64(w) != res.Values[i] {
			t.Fatalf("node %d wrong", i)
		}
	}
	// Transfer counters are internal to each program's Device; correctness
	// of the run plus nonzero comm implies the bulk path executed. The
	// direct accounting check lives below with a hand-driven sync.
	if res.TotalCommBytes == 0 {
		t.Fatal("no communication")
	}
}

// TestBulkExtractUsedBySync: hand-drive one sync over device buffers and
// confirm device→host bytes were counted (the bulk gather ran).
func TestBulkExtractUsedBySync(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 2}, {Src: 2, Dst: 1}, {Src: 1, Dst: 3}, {Src: 3, Dst: 0}}
	pol, err := partition.NewPolicy(partition.OEC, 4, 2, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(4, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	hub := comm.NewHub(2)
	defer hub.Close()

	type host struct {
		g   *gluon.Gluon
		dev *irgl.Device
		buf *irgl.Buffer[uint32]
	}
	hosts := make([]host, 2)
	var wg sync.WaitGroup
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			gl, err := gluon.New(parts[h], hub.Endpoint(h), gluon.Opt())
			if err != nil {
				panic(err)
			}
			dev := irgl.New(parts[h].Graph, 1)
			buf := irgl.NewBuffer[uint32](dev, parts[h].NumProxies())
			for i := range buf.Data() {
				buf.Data()[i] = 1000
			}
			hosts[h] = host{g: gl, dev: dev, buf: buf}
		}(h)
	}
	wg.Wait()

	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			field := gluon.Field[uint32]{
				ID: 31, Name: "dev", Write: gluon.AtDestination, Read: gluon.AtSource,
				Reduce:    irgl.MinBuf(hosts[h].buf),
				Broadcast: irgl.SetBuf(hosts[h].buf),
			}
			upd := bitset.New(parts[h].NumProxies())
			// Mark every mirror updated so every host ships something.
			for lid := parts[h].NumMasters; lid < parts[h].NumProxies(); lid++ {
				hosts[h].buf.Data()[lid] = uint32(h + 1)
				upd.SetUnsync(lid)
			}
			if err := gluon.Sync(hosts[h].g, field, upd); err != nil {
				panic(err)
			}
		}(h)
	}
	wg.Wait()

	var fromDev uint64
	for h := range hosts {
		fromDev += hosts[h].dev.Stats().BytesFromDevice
	}
	if fromDev == 0 {
		t.Fatal("no device→host staging recorded; bulk extract not used")
	}
}
