package bench

import (
	"fmt"
	"io"

	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// Ablations beyond the paper's Figure 10: the effect of the design choices
// DESIGN.md calls out — the adaptive metadata encoding (§4.2) against each
// fixed encoding, and the structural mirror subsets per policy.

// AblationEncodings compares the adaptive per-message encoding choice
// against pinning each fixed encoding, for every benchmark on one CVC
// partitioning. The adaptive row should never lose on volume.
func AblationEncodings(w io.Writer, p Params) error {
	hosts := p.Hosts[len(p.Hosts)-1]
	fmt.Fprintf(w, "Ablation: adaptive vs fixed metadata encodings — d-galois, cvc, %d hosts\n", hosts)
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s\n", "bench", "adaptive", "dense", "bitvec", "indices")
	encodings := []struct {
		name string
		enc  gluon.Encoding
	}{
		{"adaptive", gluon.EncodingAuto},
		{"dense", gluon.EncodingDense},
		{"bitvec", gluon.EncodingBitvec},
		{"indices", gluon.EncodingIndices},
	}
	for _, benchName := range Benchmarks {
		wl, err := NewWorkload("rmat", p, benchName == "sssp")
		if err != nil {
			return err
		}
		vols := make([]uint64, len(encodings))
		for i, e := range encodings {
			opt := gluon.Opt()
			opt.ForceEncoding = e.enc
			m, err := RunSpec(Spec{System: DGalois, Benchmark: benchName,
				Hosts: hosts, Policy: partition.CVC, Opt: opt}, wl, p)
			if err != nil {
				return err
			}
			vols[i] = m.CommBytes
		}
		fmt.Fprintf(w, "%-6s %12s %12s %12s %12s\n", benchName,
			fmtBytes(vols[0]), fmtBytes(vols[1]), fmtBytes(vols[2]), fmtBytes(vols[3]))
		for i := 1; i < len(vols); i++ {
			if vols[0] > vols[i] {
				fmt.Fprintf(w, "  NOTE: adaptive lost to %s on %s (%d vs %d bytes)\n",
					encodings[i].name, benchName, vols[0], vols[i])
			}
		}
	}
	return nil
}

// AblationSubsets compares the structurally-pruned mirror subsets (OSI)
// against the all-mirrors pattern on each policy, reporting volume — the
// per-policy decomposition behind Figure 10's OSI bars.
func AblationSubsets(w io.Writer, p Params) error {
	hosts := p.Hosts[len(p.Hosts)-1]
	fmt.Fprintf(w, "Ablation: structural mirror subsets per policy — d-galois bfs, %d hosts\n", hosts)
	fmt.Fprintf(w, "%-6s %14s %14s %8s\n", "policy", "all-mirrors", "subsets", "saving")
	wl, err := NewWorkload("rmat", p, false)
	if err != nil {
		return err
	}
	for _, pol := range partition.AllKinds() {
		var vols [2]uint64
		for i, si := range []bool{false, true} {
			opt := gluon.Options{StructuralInvariants: si, TemporalInvariance: true}
			m, err := RunSpec(Spec{System: DGalois, Benchmark: "bfs",
				Hosts: hosts, Policy: pol, Opt: opt}, wl, p)
			if err != nil {
				return err
			}
			vols[i] = m.CommBytes
		}
		saving := 0.0
		if vols[0] > 0 {
			saving = 100 * (1 - float64(vols[1])/float64(vols[0]))
		}
		fmt.Fprintf(w, "%-6s %14s %14s %7.1f%%\n", pol, fmtBytes(vols[0]), fmtBytes(vols[1]), saving)
	}
	return nil
}
