package irgl

import (
	"sync/atomic"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/fields"
	"gluon/internal/generate"
	"gluon/internal/graph"
	"gluon/internal/ref"
)

func rmatCSR(t testing.TB) *graph.CSR {
	t.Helper()
	cfg := generate.Config{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 55}
	edges, err := generate.Edges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(cfg.NumNodes(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKernelVisitsAllNodes(t *testing.T) {
	g := rmatCSR(t)
	d := New(g, 4)
	seen := make([]uint32, g.NumNodes())
	d.KernelBlocks(func(lo, hi int) {
		for u := lo; u < hi; u++ {
			atomic.AddUint32(&seen[u], 1)
		}
	})
	for u, c := range seen {
		if c != 1 {
			t.Fatalf("node %d visited %d times", u, c)
		}
	}
	if d.Stats().KernelLaunches != 1 {
		t.Fatalf("launches %d", d.Stats().KernelLaunches)
	}
}

func TestKernelMasked(t *testing.T) {
	g := rmatCSR(t)
	d := New(g, 4)
	active := bitset.New(g.NumNodes())
	active.Set(0)
	active.Set(100)
	var visits atomic.Uint64
	d.KernelMasked(active, func(u uint32) {
		if u != 0 && u != 100 {
			t.Errorf("visited inactive node %d", u)
		}
		visits.Add(1)
	})
	if visits.Load() != 2 {
		t.Fatalf("visits %d", visits.Load())
	}
}

// TestLevelSyncBFS: repeated masked kernels implement level-by-level BFS.
func TestLevelSyncBFS(t *testing.T) {
	g := rmatCSR(t)
	source := g.MaxOutDegreeNode()
	want := ref.BFS(g, source)

	d := New(g, 4)
	buf := NewBuffer[uint32](d, g.NumNodes())
	dist := buf.Data()
	for i := range dist {
		dist[i] = fields.InfinityU32
	}
	dist[source] = 0
	frontier := bitset.New(g.NumNodes())
	frontier.Set(source)
	for frontier.Any() {
		next := bitset.New(g.NumNodes())
		d.KernelMasked(frontier, func(u uint32) {
			du := fields.AtomicLoadU32(&dist[u])
			for _, v := range g.Neighbors(u) {
				if fields.AtomicMinU32(&dist[v], du+1) {
					next.Set(v)
				}
			}
		})
		frontier = next
	}
	for u := range want {
		if dist[u] != want[u] {
			t.Fatalf("node %d: %d, want %d", u, dist[u], want[u])
		}
	}
}

func TestBufferBulkTransfersAccounted(t *testing.T) {
	g := rmatCSR(t)
	d := New(g, 2)
	buf := NewBuffer[uint32](d, 100)
	if buf.Len() != 100 {
		t.Fatalf("len %d", buf.Len())
	}
	lids := []uint32{1, 5, 9}
	buf.BulkScatter(lids, []uint32{10, 50, 90})
	st := d.Stats()
	if st.BytesToDevice != 12 {
		t.Fatalf("to-device %d, want 12", st.BytesToDevice)
	}
	out := buf.BulkGather(lids, make([]uint32, 3))
	if out[0] != 10 || out[1] != 50 || out[2] != 90 {
		t.Fatalf("gathered %v", out)
	}
	st = d.Stats()
	if st.BytesFromDevice != 12 {
		t.Fatalf("from-device %d, want 12", st.BytesFromDevice)
	}
}
