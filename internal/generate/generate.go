// Package generate produces the synthetic input graphs used by the
// experiments. The paper evaluates on RMAT and Kronecker graphs generated
// with the graph500 probabilities (0.57, 0.19, 0.19, 0.05) and on three
// real-world web crawls (twitter40, clueweb12, wdc12). The crawls are not
// redistributable at laptop scale, so this package also provides a
// power-law "webcrawl" generator that reproduces the property that drives
// the paper's results: heavy-tailed in/out degree skew (see DESIGN.md §2).
//
// Every generator is a pure function of its Config: the same seed is the
// same edge list on every machine and at every GOMAXPROCS.
package generate

import (
	"fmt"
	"math"

	"gluon/internal/graph"
	"gluon/internal/par"
)

// Graph500 initiator probabilities for RMAT/Kronecker, per the paper (§5.1).
const (
	ProbA = 0.57
	ProbB = 0.19
	ProbC = 0.19
	ProbD = 0.05
)

// Config selects a synthetic graph.
type Config struct {
	// Kind is one of "rmat", "kron", "webcrawl", "twitterlike", "random",
	// "grid", "chain", "star".
	Kind string
	// Scale: the graph has 2^Scale nodes (grid: side length 2^(Scale/2)).
	Scale uint
	// EdgeFactor: average directed edges per node.
	EdgeFactor uint
	// Seed drives all pseudo-randomness.
	Seed uint64
	// Weighted adds edge weights in [1, MaxWeight].
	Weighted  bool
	MaxWeight uint32
}

// NumNodes returns the node count implied by the config.
func (c Config) NumNodes() uint64 { return 1 << c.Scale }

// NumEdges returns the edge count implied by the config.
func (c Config) NumEdges() uint64 { return c.NumNodes() * uint64(c.EdgeFactor) }

// Edges generates the configured graph's edge list in global-ID space.
func Edges(c Config) ([]graph.Edge, error) {
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 16
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 100
	}
	var edges []graph.Edge
	switch c.Kind {
	case "rmat":
		edges = rmat(c, ProbA, ProbB, ProbC, ProbD, true)
	case "kron":
		// Kronecker generation shares the recursive-quadrant machinery with
		// RMAT but applies no per-level probability noise, matching the
		// sharper self-similar structure of kron graphs.
		edges = rmat(c, ProbA, ProbB, ProbC, ProbD, false)
	case "webcrawl":
		edges = webcrawl(c, 2.1, 1.6) // heavy in-degree tail like clueweb12/wdc12
	case "twitterlike":
		edges = webcrawl(c, 1.8, 2.2) // heavy out-degree tail like twitter40
	case "random":
		edges = random(c)
	case "grid":
		edges = grid(c)
	case "chain":
		edges = chain(c)
	case "star":
		edges = star(c)
	default:
		return nil, fmt.Errorf("generate: unknown graph kind %q", c.Kind)
	}
	if c.Weighted {
		addWeights(edges, c.Seed, c.MaxWeight)
	}
	return edges, nil
}

// CSR generates the configured graph and assembles it into CSR form.
func CSR(c Config) (*graph.CSR, error) {
	edges, err := Edges(c)
	if err != nil {
		return nil, err
	}
	return graph.FromEdges(c.NumNodes(), edges, c.Weighted)
}

// rmat generates 2^scale nodes with edgeFactor*2^scale edges using the
// recursive matrix method of Chakrabarti et al. When noise is true a small
// deterministic perturbation is applied to the quadrant probabilities at
// each level (standard RMAT practice); without it the generator behaves
// like a Kronecker sampler.
func rmat(c Config, a, b, cc, d float64, noise bool) []graph.Edge {
	n := c.NumNodes()
	edges := make([]graph.Edge, c.NumEdges())
	perBlock(edges, c.Seed, 0x25a7, func(r *rng, block []graph.Edge) {
		for i := range block {
			src, dst := rmatEdge(r, c.Scale, n, a, b, cc, d, noise)
			block[i] = graph.Edge{Src: src, Dst: dst}
		}
	})
	return edges
}

// blockEdges is how many consecutive edges are drawn from one random stream.
const blockEdges = 1 << 16

// perBlock fills edges a block of blockEdges at a time, in parallel, handing
// fill each block with a stream seeded by the seed, the generator's salt and
// the block's index. Which worker fills a block, and when, does not reach
// the output, so a Config is the same edge list at every GOMAXPROCS.
func perBlock(edges []graph.Edge, seed, salt uint64, fill func(r *rng, block []graph.Edge)) {
	par.For((len(edges)+blockEdges-1)/blockEdges, 0, func(b int) {
		lo := b * blockEdges
		hi := min(lo+blockEdges, len(edges))
		fill(newRNG(seed^salt^uint64(b)*0x9e3779b97f4a7c15), edges[lo:hi])
	})
}

func rmatEdge(r *rng, scale uint, n uint64, a, b, c, d float64, noise bool) (uint64, uint64) {
	var src, dst uint64
	pa, pb, pc := a, b, c
	for level := uint(0); level < scale; level++ {
		x := r.Float64()
		switch {
		case x < pa:
			// quadrant A: no bits set
		case x < pa+pb:
			dst |= 1 << level
		case x < pa+pb+pc:
			src |= 1 << level
		default:
			src |= 1 << level
			dst |= 1 << level
		}
		if noise {
			// +-10% multiplicative noise, renormalized, per SSCA/graph500.
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

// webcrawl generates a scale-free directed graph with independent Zipf
// exponents for in- and out-degree attractiveness, mimicking the asymmetric
// degree distributions of the paper's web crawls (Table 1: clueweb12 has
// max in-degree 75M vs max out-degree 7447; twitter is the reverse).
func webcrawl(c Config, inExp, outExp float64) []graph.Edge {
	n := c.NumNodes()
	// Node i has weight (i+1)^-exp under a random permutation, sampled via
	// an inverse-CDF approximation; the permutation scatters hub identities
	// so the hubs for in and out differ.
	edges := make([]graph.Edge, c.NumEdges())
	permSeed := c.Seed ^ 0xbadc0ffee
	perBlock(edges, c.Seed, 0xc4a31, func(r *rng, block []graph.Edge) {
		for i := range block {
			src := zipfSample(r, n, outExp)
			dst := zipfSample(r, n, inExp)
			block[i] = graph.Edge{
				Src: scramble(src, permSeed) % n,
				Dst: scramble(dst, permSeed^0x5bd1e995) % n,
			}
		}
	})
	return edges
}

// zipfSample draws a rank in [0, n) with P(rank=k) proportional to
// (k+1)^-exp using the inverse-CDF of the continuous bounded Pareto
// approximation, which is accurate enough for workload generation and O(1).
func zipfSample(r *rng, n uint64, exp float64) uint64 {
	if exp == 1 {
		exp = 1.000001
	}
	u := r.Float64()
	// Inverse CDF of p(x) ~ x^-exp on [1, n]:
	// x = ((1-u) + u*n^(1-exp))^(1/(1-exp))
	oneMinus := 1 - exp
	nPow := powf(float64(n), oneMinus)
	x := powf((1-u)+u*nPow, 1/oneMinus)
	k := uint64(x) - 1
	if k >= n {
		k = n - 1
	}
	return k
}

// powf aliases math.Pow so the sampler reads cleanly.
func powf(x, y float64) float64 { return math.Pow(x, y) }

// scramble applies a Feistel-free multiplicative hash permutation-ish map on
// [0, 2^64); collisions modulo n are acceptable for workload generation.
func scramble(x, seed uint64) uint64 {
	x ^= seed
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// random generates a uniform (Erdős–Rényi G(n,m)) directed multigraph.
func random(c Config) []graph.Edge {
	n, m := c.NumNodes(), c.NumEdges()
	edges := make([]graph.Edge, m)
	r := newRNG(c.Seed ^ 0xe2d05)
	for i := range edges {
		edges[i] = graph.Edge{Src: r.Uint64n(n), Dst: r.Uint64n(n)}
	}
	return edges
}

// grid generates a 2-D torus-free mesh: high diameter, low degree — a
// road-network stand-in for sssp experiments.
func grid(c Config) []graph.Edge {
	side := uint64(1) << (c.Scale / 2)
	edges := make([]graph.Edge, 0, 4*side*(side-1))
	for y := uint64(0); y < side; y++ {
		for x := uint64(0); x < side; x++ {
			u := y*side + x
			if x+1 < side {
				edges = append(edges, graph.Edge{Src: u, Dst: u + 1}, graph.Edge{Src: u + 1, Dst: u})
			}
			if y+1 < side {
				edges = append(edges, graph.Edge{Src: u, Dst: u + side}, graph.Edge{Src: u + side, Dst: u})
			}
		}
	}
	return edges
}

// chain generates a simple directed path 0→1→…→n-1, the worst case for
// round counts in level-synchronous engines.
func chain(c Config) []graph.Edge {
	n := c.NumNodes()
	edges := make([]graph.Edge, 0, n-1)
	for u := uint64(0); u+1 < n; u++ {
		edges = append(edges, graph.Edge{Src: u, Dst: u + 1})
	}
	return edges
}

// star generates node 0 pointing at every other node: the extreme
// max-out-degree case (compare Table 1's rmat26 hub of 238M out-edges).
func star(c Config) []graph.Edge {
	n := c.NumNodes()
	edges := make([]graph.Edge, 0, n-1)
	for u := uint64(1); u < n; u++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: u})
	}
	return edges
}

// addWeights assigns deterministic weights in [1, maxW].
func addWeights(edges []graph.Edge, seed uint64, maxW uint32) {
	perBlock(edges, seed, 0x57e1647, func(r *rng, block []graph.Edge) {
		for i := range block {
			block[i].Weight = uint32(r.Uint64n(uint64(maxW))) + 1
		}
	})
}
