package pr

// The operator's per-edge-division form — two dependent loads, a convert
// and a divide per edge, one atomic per vertex — which common.gather
// replaced, kept as the oracle: the share table must change no bit of
// contrib in any round, and so no bit of any rank.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/dsys"
	"gluon/internal/generate"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

func gatherOracle(c *common, in *graph.CSR, contrib []float64, updated *bitset.Bitset) {
	for v := uint32(0); v < in.NumNodes(); v++ {
		var sum float64
		for _, u := range in.Neighbors(v) {
			sum += c.rank[u] / float64(c.outdeg[u])
		}
		contrib[v] = sum
		if sum != 0 {
			updated.Set(v)
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// oracleProgram is pull pagerank with the oracle as its operator.
type oracleProgram struct{ *common }

func (o oracleProgram) Round(*bitset.Bitset) (*bitset.Bitset, error) {
	updated := bitset.New(o.p.NumProxies())
	gatherOracle(o.common, o.p.InGraph(), o.contrib, updated)
	return updated, nil
}

// checkedProgram runs an engine variant and, after every round, holds its
// contrib, its updated set and its share table against the oracle's.
type checkedProgram struct {
	dsys.Program
	c      *common
	t      *testing.T
	rounds int
}

func (k *checkedProgram) Round(f *bitset.Bitset) (*bitset.Bitset, error) {
	updated, err := k.Program.Round(f)
	if err != nil {
		return nil, err
	}
	k.rounds++
	c, n := k.c, k.c.p.NumProxies()
	want, wantUpdated := make([]float64, n), bitset.New(n)
	gatherOracle(c, c.p.InGraph(), want, wantUpdated)
	if !sameBits(c.contrib, want) {
		k.t.Errorf("host %d round %d: contrib differs from the per-edge-division loop", c.p.HostID, k.rounds)
	}
	if !slices.Equal(updated.Words(), wantUpdated.Words()) {
		k.t.Errorf("host %d round %d: updated set differs", c.p.HostID, k.rounds)
	}
	for u, s := range c.share {
		if math.IsInf(s, 0) || math.IsNaN(s) {
			k.t.Errorf("host %d round %d: share[%d] = %v (outdeg %d)", c.p.HostID, k.rounds, u, s, c.outdeg[u])
		}
	}
	return updated, nil
}

// TestGatherBitIdenticalToPerEdgeDivision: every engine variant × policy ×
// host count, on a power-law graph and on the star (whose hub has no
// in-edge and whose leaves have no out-edge), computes contrib after every
// round and the final ranks bit for bit as the oracle loop does.
func TestGatherBitIdenticalToPerEdgeDivision(t *testing.T) {
	engines := []struct {
		name    string
		factory dsys.ProgramFactory
		common  func(dsys.Program) *common
	}{
		{"ligra", NewLigra(1e-9, 2), func(p dsys.Program) *common { return p.(*program).common }},
		{"galois", NewGalois(1e-9, 2), func(p dsys.Program) *common { return p.(*program).common }},
		{"irgl", NewIrGL(1e-9, 2), func(p dsys.Program) *common { return p.(*program).common }},
	}
	for _, cfg := range []generate.Config{
		{Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 61},
		{Kind: "star", Scale: 6, EdgeFactor: 1},
	} {
		edges, err := generate.Edges(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range partition.AllKinds() {
			for _, hosts := range []int{1, 3, 4} {
				rc := dsys.RunConfig{Hosts: hosts, Policy: pol, Opt: gluon.Opt(), CollectValues: true, MaxRounds: 30}
				want, err := dsys.Run(cfg.NumNodes(), edges, rc, func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
					return oracleProgram{newCommon(p, g, 1e-9)}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					t.Run(fmt.Sprintf("%s/%s/h%d/%s", cfg.Kind, pol, hosts, e.name), func(t *testing.T) {
						res, err := dsys.Run(cfg.NumNodes(), edges, rc, func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
							prog, err := e.factory(p, g)
							if err != nil {
								return nil, err
							}
							return &checkedProgram{Program: prog, c: e.common(prog), t: t}, nil
						})
						if err != nil {
							t.Fatal(err)
						}
						if res.Rounds != want.Rounds || !sameBits(res.Values, want.Values) {
							t.Errorf("final ranks differ from the oracle's (%d rounds, oracle %d)", res.Rounds, want.Rounds)
						}
					})
				}
			}
		}
	}
}

// BenchmarkPRGather times one round of the operator (share refill + gather,
// one worker) on one host's partition of the dense benchmark workload's
// shape — rmat scale 16 × 64 edges per node, OEC, 2 hosts — and reports
// ns per in-edge.
func BenchmarkPRGather(b *testing.B) {
	cfg := generate.Config{Kind: "rmat", Scale: 16, EdgeFactor: 64, Seed: 2018}
	edges, err := generate.Edges(cfg)
	if err != nil {
		b.Fatal(err)
	}
	outdeg := make([]uint64, cfg.NumNodes())
	for _, e := range edges {
		outdeg[e.Src]++
	}
	pol, err := partition.NewPolicy(partition.OEC, cfg.NumNodes(), 2, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := partition.PartitionAll(cfg.NumNodes(), edges, pol)
	if err != nil {
		b.Fatal(err)
	}
	p := parts[0]
	c := newCommon(p, nil, 0)
	for lid := range c.rank {
		c.outdeg[lid] = outdeg[p.GID(uint32(lid))]
		c.rank[lid] = 1 - Alpha + float64(lid%97)/97
	}
	prog := &program{common: c, in: p.InGraph(), workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Round(nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(prog.in.NumEdges()), "ns/edge")
}
