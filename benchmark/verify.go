package main

import (
	"fmt"
	"math"

	"gluon/internal/algorithms/pr"
	"gluon/internal/graph"
	"gluon/internal/ref"
	"gluon/internal/validate"
)

// verify checks the values the warm-up operation collected, one vector per
// run of the operation, against the sequential reference.
//
//   - pr: every rank equals ref.PageRank's after the same number of rounds,
//     to float reassociation error. The pr workloads stop at their round cap,
//     far from the fixed point, so validate.PageRank's fixed-point oracle
//     would need a tolerance too loose to catch a lost update.
//   - bfs, and the first sssp source: exactly the reference's distances.
//   - the remaining sssp sources: validate.SSSP's O(|E|) oracle (triangle
//     inequality on every edge, every finite distance witnessed).
func (s spec) verify(csr *graph.CSR, sources []uint64, values [][]float64) error {
	if s.algo == "pr" {
		want := ref.PageRank(csr, pr.Alpha, prTolerance, s.maxRounds)
		return compareRanks(values[0], want)
	}
	for i, vals := range values {
		dist := make([]uint32, len(vals))
		for j, v := range vals {
			dist[j] = uint32(v)
		}
		src := uint32(sources[i])
		switch {
		case s.algo == "bfs":
			if err := compareDist(dist, ref.BFS(csr, src)); err != nil {
				return fmt.Errorf("bfs from %d: %w", src, err)
			}
		case i == 0:
			if err := compareDist(dist, ref.SSSP(csr, src)); err != nil {
				return fmt.Errorf("sssp from %d: %w", src, err)
			}
		default:
			if err := validate.SSSP(csr, src, dist); err != nil {
				return fmt.Errorf("sssp from %d: %w", src, err)
			}
		}
	}
	return nil
}

func compareDist(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values for %d nodes", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("node %d = %d, reference %d", i, got[i], want[i])
		}
	}
	return nil
}

func compareRanks(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values for %d nodes", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= 1e-9*(1+math.Abs(want[i]))) {
			return fmt.Errorf("node %d rank %g, reference %g", i, got[i], want[i])
		}
	}
	return nil
}
