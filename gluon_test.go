package gluon_test

import (
	"math"
	"testing"

	"gluon"
	"gluon/internal/ref"
)

func genTest(t *testing.T, weighted bool) (uint64, []gluon.Edge, *gluon.CSR) {
	t.Helper()
	numNodes, edges, err := gluon.Generate(gluon.GraphConfig{
		Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 77, Weighted: weighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	csr, err := gluon.BuildCSR(numNodes, edges, weighted)
	if err != nil {
		t.Fatal(err)
	}
	return numNodes, edges, csr
}

// TestPublicAPIBFS exercises the documented quick-start flow end to end
// for every system.
func TestPublicAPIBFS(t *testing.T) {
	numNodes, edges, csr := genTest(t, false)
	source := uint64(csr.MaxOutDegreeNode())
	want := ref.BFS(csr, uint32(source))
	for _, sys := range gluon.AllSystems() {
		res, err := gluon.Run(numNodes, edges, gluon.RunConfig{
			Hosts: 4, Policy: gluon.CVC, Opt: gluon.Opt(), CollectValues: true,
		}, gluon.NewBFS(sys, source, 2))
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		for i, w := range want {
			if float64(w) != res.Values[i] {
				t.Fatalf("%s: node %d = %v, want %d", sys, i, res.Values[i], w)
			}
		}
		if res.TotalCommBytes == 0 {
			t.Fatalf("%s: no communication recorded", sys)
		}
	}
}

func TestPublicAPISSSPAndCC(t *testing.T) {
	numNodes, edges, csr := genTest(t, true)
	source := uint64(csr.MaxOutDegreeNode())
	wantD := ref.SSSP(csr, uint32(source))
	res, err := gluon.Run(numNodes, edges, gluon.RunConfig{
		Hosts: 3, Policy: gluon.HVC, Opt: gluon.Opt(), CollectValues: true,
	}, gluon.NewSSSP(gluon.DGalois, source, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range wantD {
		if float64(w) != res.Values[i] {
			t.Fatalf("sssp node %d = %v, want %d", i, res.Values[i], w)
		}
	}
	if res.Rounds == 0 {
		t.Fatal("sssp ran no rounds")
	}

	sym := gluon.Symmetrize(edges)
	symCSR, err := gluon.BuildCSR(numNodes, sym, true)
	if err != nil {
		t.Fatal(err)
	}
	wantC := ref.CC(symCSR)
	res, err = gluon.Run(numNodes, sym, gluon.RunConfig{
		Hosts: 4, Policy: gluon.OEC, Opt: gluon.Opt(), CollectValues: true,
	}, gluon.NewCC(gluon.DLigra, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range wantC {
		if float64(w) != res.Values[i] {
			t.Fatalf("cc node %d = %v, want %d", i, res.Values[i], w)
		}
	}
}

func TestPublicAPIPageRank(t *testing.T) {
	numNodes, edges, csr := genTest(t, false)
	want := ref.PageRank(csr, 0.85, 1e-9, 100)
	res, err := gluon.Run(numNodes, edges, gluon.RunConfig{
		Hosts: 2, Policy: gluon.IEC, Opt: gluon.Opt(), CollectValues: true, MaxRounds: 100,
	}, gluon.NewPageRank(gluon.DIrGL, 1e-9, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Abs(res.Values[i]-w) > 1e-6 {
			t.Fatalf("pr node %d = %v, want %v", i, res.Values[i], w)
		}
	}
}

func TestPublicAPIKCoreAndBC(t *testing.T) {
	numNodes, edges, csr := genTest(t, false)
	sym := gluon.Symmetrize(edges)
	res, err := gluon.Run(numNodes, sym, gluon.RunConfig{
		Hosts: 3, Policy: gluon.CVC, Opt: gluon.Opt(), CollectValues: true,
	}, gluon.NewKCore(gluon.DGalois, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	inCore := 0
	for _, v := range res.Values {
		if v == 1 {
			inCore++
		}
	}
	if inCore == 0 || inCore == int(numNodes) {
		t.Fatalf("4-core of %d nodes has %d members; expected a proper subset", numNodes, inCore)
	}
	source := uint64(csr.MaxOutDegreeNode())
	bcRes, err := gluon.Run(numNodes, edges, gluon.RunConfig{
		Hosts: 3, Policy: gluon.OEC, Opt: gluon.Opt(),
		CollectValues: true, MaxRounds: 100000,
	}, gluon.NewBC(source, 2))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range bcRes.Values {
		total += v
	}
	if total <= 0 {
		t.Fatalf("bc dependencies sum %f; expected positive", total)
	}
}

func TestPublicAPIAutotune(t *testing.T) {
	numNodes, edges, _ := genTest(t, false)
	pol, err := gluon.AutotunePolicy(numNodes, edges, 3, gluon.NewPageRank(gluon.DGalois, 1e-6, 2))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range []gluon.PolicyKind{gluon.OEC, gluon.IEC, gluon.CVC, gluon.HVC} {
		if pol == k {
			found = true
		}
	}
	if !found {
		t.Fatalf("autotune returned unknown policy %q", pol)
	}
}

func TestUnknownSystemErrors(t *testing.T) {
	numNodes, edges, _ := genTest(t, false)
	_, err := gluon.Run(numNodes, edges, gluon.RunConfig{
		Hosts: 2, Policy: gluon.OEC,
	}, gluon.NewBFS("no-such-system", 0, 1))
	if err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestAllSystemsListed(t *testing.T) {
	got := gluon.AllSystems()
	if len(got) != 3 {
		t.Fatalf("AllSystems = %v", got)
	}
	for _, sys := range got {
		if sys != gluon.DLigra && sys != gluon.DGalois && sys != gluon.DIrGL {
			t.Fatalf("unknown system %q", sys)
		}
	}
}

func TestKCoreUnknownSystemErrors(t *testing.T) {
	numNodes, edges, _ := genTest(t, false)
	_, err := gluon.Run(numNodes, gluon.Symmetrize(edges), gluon.RunConfig{
		Hosts: 2, Policy: gluon.OEC,
	}, gluon.NewKCore("not-a-system", 4, 1))
	if err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestOptToggles(t *testing.T) {
	o := gluon.Opt()
	if !o.StructuralInvariants || !o.TemporalInvariance {
		t.Fatal("Opt() not fully enabled")
	}
	u := gluon.Unopt()
	if u.StructuralInvariants || u.TemporalInvariance {
		t.Fatal("Unopt() not fully disabled")
	}
}
