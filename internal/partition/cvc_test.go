package partition

import (
	"reflect"
	"testing"
	"testing/quick"

	"gluon/internal/graph"
)

// TestQuickCVCGridPlacement: the Cartesian vertex-cut assigns every edge to
// the host at (row of owner(src), column of owner(dst)) — the 2-D property
// that bounds communication partners to one row plus one column.
func TestQuickCVCGridPlacement(t *testing.T) {
	const numNodes = 1 << 12
	for _, hosts := range []int{4, 6, 8, 12, 16} {
		pol, err := NewPolicy(CVC, numNodes, hosts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cvc := pol.(*cvcPolicy)
		rows, cols := cvc.rows, cvc.cols
		if rows*cols != hosts {
			t.Fatalf("hosts %d: grid %dx%d", hosts, rows, cols)
		}
		f := func(src, dst uint16) bool {
			s, d := uint64(src)%numNodes, uint64(dst)%numNodes
			h := pol.EdgeHost(s, d)
			// Same row as the source's owner, same column as the
			// destination's owner.
			return h/cols == pol.Owner(s)/cols && h%cols == pol.Owner(d)%cols
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("hosts %d: %v", hosts, err)
		}
	}
}

// TestQuickCVCCommunicationPartners: under CVC, the hosts an owner
// exchanges proxies with lie in its own grid row and column — at most
// rows+cols-2 partners rather than hosts-1 (why CVC wins at scale, §3.2).
func TestQuickCVCCommunicationPartners(t *testing.T) {
	const numNodes = 1 << 12
	const hosts = 16
	pol, err := NewPolicy(CVC, numNodes, hosts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cvc := pol.(*cvcPolicy)
	f := func(src, dst uint16) bool {
		s, d := uint64(src)%numNodes, uint64(dst)%numNodes
		h := pol.EdgeHost(s, d)
		srcOwner, dstOwner := pol.Owner(s), pol.Owner(d)
		// The edge host shares a row with src's owner and a column with
		// dst's owner, so any proxy↔master pair shares a row or column.
		sameRowSrc := h/cvc.cols == srcOwner/cvc.cols
		sameColDst := h%cvc.cols == dstOwner%cvc.cols
		return sameRowSrc && sameColDst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHVCEdgePlacement: the hybrid vertex-cut routes low-in-degree
// destinations to their owner and spreads high-in-degree hubs by source.
func TestQuickHVCEdgePlacement(t *testing.T) {
	const numNodes = 256
	inDeg := make([]uint32, numNodes)
	for i := range inDeg {
		if i%10 == 0 {
			inDeg[i] = 1000 // hubs
		} else {
			inDeg[i] = 2
		}
	}
	pol, err := NewPolicy(HVC, numNodes, 4, Options{InDegrees: inDeg, HVCThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	f := func(src, dst uint8) bool {
		s, d := uint64(src)%numNodes, uint64(dst)%numNodes
		h := pol.EdgeHost(s, d)
		if inDeg[d] <= 100 {
			return h == pol.Owner(d)
		}
		return h == pol.Owner(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenPolicy: frozen policies answer Owner but refuse EdgeHost.
func TestFrozenPolicy(t *testing.T) {
	orig, err := NewPolicy(OEC, 100, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := orig.Bounds()
	frozen, err := Frozen("oec", bounds)
	if err != nil {
		t.Fatal(err)
	}
	for gid := uint64(0); gid < 100; gid++ {
		if frozen.Owner(gid) != orig.Owner(gid) {
			t.Fatalf("owner of %d differs", gid)
		}
	}
	if !reflect.DeepEqual(frozen.Bounds(), bounds) {
		t.Fatal("frozen bounds not recoverable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeHost on frozen policy did not panic")
		}
	}()
	frozen.EdgeHost(0, 1)
}

func TestFrozenRejectsBadBounds(t *testing.T) {
	if _, err := Frozen("oec", []uint64{5}); err == nil {
		t.Fatal("single bound accepted")
	}
}

// TestReassembleValidation: corrupted inputs are rejected — in particular
// every GID vector that breaks the layout LID's arithmetic relies on.
func TestReassembleValidation(t *testing.T) {
	pol, _ := NewPolicy(OEC, 8, 2, Options{}) // host 0 owns [0, 4)
	g := graph.Build(6, []graph.LocalEdge{{Src: 0, Dst: 4}, {Src: 1, Dst: 5}}, false)
	for name, c := range map[string]struct {
		host       int
		gids       []uint64
		numMasters uint32
	}{
		"short GID vector":          {0, []uint64{0, 1, 2, 3, 5}, 4},
		"masters > proxies":         {0, []uint64{0, 1, 2, 3, 5, 7}, 9},
		"masters not the range":     {0, []uint64{0, 1, 2, 3, 5, 7}, 3},
		"unsorted masters":          {0, []uint64{0, 2, 1, 3, 5, 7}, 4},
		"duplicate master":          {0, []uint64{0, 1, 1, 3, 5, 7}, 4},
		"unsorted mirrors":          {0, []uint64{0, 1, 2, 3, 7, 5}, 4},
		"duplicate mirror":          {0, []uint64{0, 1, 2, 3, 5, 5}, 4},
		"mirror of an owned node":   {1, []uint64{4, 5, 6, 7, 2, 6}, 4},
		"mirror beyond the graph":   {0, []uint64{0, 1, 2, 3, 5, 8}, 4},
		"host beyond the policy":    {2, []uint64{0, 1, 2, 3, 5, 7}, 4},
		"negative host":             {-1, []uint64{0, 1, 2, 3, 5, 7}, 4},
		"masters of the wrong host": {1, []uint64{0, 1, 2, 3, 5, 7}, 4},
	} {
		if _, err := Reassemble(c.host, pol, g, c.gids, c.numMasters, 8); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	p, err := Reassemble(0, pol, g, []uint64{0, 1, 2, 3, 5, 7}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasOut.Test(0) || !p.HasIn.Test(4) || p.HasIn.Test(0) || p.HasOut.Test(2) {
		t.Fatal("structural flags wrong after reassembly")
	}
	checkTranslation(t, p)
}
