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
	"math/bits"

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
	// 1<<64 is 0 nodes, and a wrapped edge count is a short list: refuse
	// both before allocating anything.
	if hi, m := bits.Mul64(c.NumNodes(), uint64(c.EdgeFactor)); c.Scale >= 64 || hi != 0 || m > math.MaxInt {
		return nil, fmt.Errorf("generate: scale %d with edge factor %d overflows the node or edge count", c.Scale, c.EdgeFactor)
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

// rmat generates 2^scale nodes with edgeFactor*2^scale edges using the
// recursive matrix method of Chakrabarti et al. When noise is true a small
// deterministic perturbation is applied to the quadrant probabilities at
// each level (standard RMAT practice); without it the generator behaves
// like a Kronecker sampler.
//
// Every edge consumes a fixed number of draws — per level the quadrant draw
// and, with noise, the four noise draws after it — so one fill of the lanes'
// draws consumes exactly the stream that drawing their edges one by one would.
func rmat(c Config, a, b, cc, d float64, noise bool) []graph.Edge {
	n := c.NumNodes()
	step := 1
	if noise {
		step = 5
	}
	draws := int(c.Scale) * step
	edges := make([]graph.Edge, c.NumEdges())
	perBlock(edges, c.Seed, 0x25a7, func(r *rng, block []graph.Edge) {
		u := make([]float64, rmatLanes*draws)
		for lo := 0; lo < len(block); lo += rmatLanes {
			out := block[lo:min(lo+rmatLanes, len(block))]
			r.fill(u[:len(out)*draws])
			rmatEdges(out, u, draws, step, n, a, b, cc, d)
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

// rmatLanes is how many edges rmatEdges walks down the levels side by side,
// so that their independent multiply → add → divide chains overlap.
const rmatLanes = 8

// rmatEdges draws the len(out) ≤ rmatLanes edges whose draws u holds, draws
// per edge back to back in stream order: per level the quadrant draw and,
// when step is 5, the four noise draws. Each edge's floating-point operations
// are those of a walk down its own levels alone, in the same order.
func rmatEdges(out []graph.Edge, u []float64, draws, step int, n uint64, a, b, c, d float64) {
	var pa, pb, pc [rmatLanes]float64
	var src, dst [rmatLanes]uint64
	for j := range out {
		pa[j], pb[j], pc[j] = a, b, c
	}
	for level := 0; level*step < draws; level++ {
		for j := range out {
			x := u[j*draws+level*step:]
			// Quadrant A sets no bit, B the dst bit, C the src bit, D both.
			ab := pa[j] + pb[j]
			src[j] |= b2u(x[0] >= ab) << level
			dst[j] |= (b2u(x[0] >= pa[j]) ^ b2u(x[0] >= ab) ^ b2u(x[0] >= ab+pc[j])) << level
			if step == 5 {
				// +-10% multiplicative noise, renormalized, per SSCA/graph500.
				na := pa[j] * (0.9 + 0.2*x[1])
				nb := pb[j] * (0.9 + 0.2*x[2])
				nc := pc[j] * (0.9 + 0.2*x[3])
				nd := d * (0.9 + 0.2*x[4])
				s := na + nb + nc + nd
				pa[j], pb[j], pc[j] = na/s, nb/s, nc/s
			}
		}
	}
	for j := range out {
		out[j] = graph.Edge{Src: src[j] % n, Dst: dst[j] % n}
	}
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
	in, out := newZipf(n, inExp), newZipf(n, outExp)
	perBlock(edges, c.Seed, 0xc4a31, func(r *rng, block []graph.Edge) {
		for i := range block {
			src := out.sample(r)
			dst := in.sample(r)
			block[i] = graph.Edge{
				Src: scramble(src, permSeed) % n,
				Dst: scramble(dst, permSeed^0x5bd1e995) % n,
			}
		}
	})
	return edges
}

// zipf draws ranks in [0, n) with P(rank=k) proportional to (k+1)^-exp
// using the inverse-CDF of the continuous bounded Pareto approximation,
// which is accurate enough for workload generation and O(1).
type zipf struct {
	n         uint64
	nPow, inv float64 // n^(1-exp) and 1/(1-exp)
}

func newZipf(n uint64, exp float64) zipf {
	if exp == 1 {
		exp = 1.000001
	}
	oneMinus := 1 - exp
	return zipf{n, math.Pow(float64(n), oneMinus), 1 / oneMinus}
}

func (z zipf) sample(r *rng) uint64 {
	u := r.Float64()
	// Inverse CDF of p(x) ~ x^-exp on [1, n]:
	// x = ((1-u) + u*n^(1-exp))^(1/(1-exp))
	x := math.Pow((1-u)+u*z.nPow, z.inv)
	k := uint64(x) - 1
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

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
