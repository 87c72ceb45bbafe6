package bench

import (
	"fmt"
	"io"

	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// Figure8 reproduces the strong-scaling study: execution time (8a) and
// communication volume (8b) of D-Ligra, D-Galois, and the Gemini-style
// baseline across host counts, per benchmark per graph.
func Figure8(w io.Writer, p Params) error {
	fmt.Fprintf(w, "Figure 8: strong scaling — execution time (s) and communication volume\n")
	fmt.Fprintf(w, "%-6s %-14s %6s | %10s %12s | %10s %12s | %10s %12s\n",
		"bench", "graph", "hosts", "dligra(s)", "vol", "dgalois(s)", "vol", "gemini(s)", "vol")
	for _, benchName := range Benchmarks {
		for _, kind := range []string{"rmat", "webcrawl"} {
			wl, err := NewWorkload(kind, p, benchName == "sssp")
			if err != nil {
				return err
			}
			for _, hosts := range p.Hosts {
				var ms [3]Measurement
				for i, sys := range []SystemID{DLigra, DGalois, Gemini} {
					m, err := RunSpec(Spec{System: sys, Benchmark: benchName, Hosts: hosts,
						Policy: partition.CVC, Opt: gluon.Opt()}, wl, p)
					if err != nil {
						return err
					}
					ms[i] = m
				}
				fmt.Fprintf(w, "%-6s %-14s %6d | %10.3f %12s | %10.3f %12s | %10.3f %12s\n",
					benchName, wl.Name, hosts,
					ms[0].Time.Seconds(), fmtBytes(ms[0].CommBytes),
					ms[1].Time.Seconds(), fmtBytes(ms[1].CommBytes),
					ms[2].Time.Seconds(), fmtBytes(ms[2].CommBytes))
			}
		}
	}
	return nil
}

// Figure9 reproduces the D-IrGL strong-scaling study across device counts.
func Figure9(w io.Writer, p Params) error {
	fmt.Fprintf(w, "Figure 9: D-IrGL strong scaling — execution time (s) by device count\n")
	fmt.Fprintf(w, "%-6s %-14s", "bench", "graph")
	for _, d := range p.Devices {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("%d dev", d))
	}
	fmt.Fprintln(w)
	for _, benchName := range Benchmarks {
		for _, kind := range []string{"rmat", "kron"} {
			wl, err := NewWorkload(kind, p, benchName == "sssp")
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-6s %-14s", benchName, wl.Name)
			for _, devs := range p.Devices {
				m, err := RunSpec(Spec{System: DIrGL, Benchmark: benchName, Hosts: devs,
					Policy: partition.CVC, Opt: gluon.Opt()}, wl, p)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %9.3f", m.Time.Seconds())
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// OptConfig names one Figure 10 optimization setting.
type OptConfig struct {
	Name string
	Opt  gluon.Options
}

// OptConfigs are the four Figure 10 settings in paper order.
func OptConfigs() []OptConfig {
	return []OptConfig{
		{"UNOPT", gluon.Options{}},
		{"OSI", gluon.Options{StructuralInvariants: true}},
		{"OTI", gluon.Options{TemporalInvariance: true}},
		{"OSTI", gluon.Options{StructuralInvariants: true, TemporalInvariance: true}},
	}
}

// Figure10 reproduces the communication-optimization breakdown: for each
// benchmark and each of {CVC, OEC} partitionings of one graph, the
// execution time split into max-compute and non-overlapping communication,
// and the communication volume, under UNOPT / OSI / OTI / OSTI. One
// partitioning is built per policy and reused across all four settings,
// exactly as in the paper.
func Figure10(w io.Writer, p Params) error {
	const sys, kind = DGalois, "rmat"
	hosts := p.Hosts[len(p.Hosts)-1]
	fmt.Fprintf(w, "Figure 10: communication optimizations — %s on %s, %d hosts\n", sys, kind, hosts)
	// comm(s) is the modeled estimate (wall minus max-compute); sync(s) is
	// measured per-round max-across-hosts sync time (dsys.Result.MaxComm).
	fmt.Fprintf(w, "%-6s %-6s %-6s %10s %10s %10s %10s %12s %8s\n",
		"bench", "policy", "config", "total(s)", "comp(s)", "comm(s)", "sync(s)", "volume", "rounds")

	var unopt, osti []float64
	for _, benchName := range Benchmarks {
		wl, err := NewWorkload(kind, p, benchName == "sssp")
		if err != nil {
			return err
		}
		for _, polKind := range []partition.Kind{partition.CVC, partition.OEC} {
			parts, err := wl.partition(benchName, polKind, hosts)
			if err != nil {
				return err
			}
			for _, oc := range OptConfigs() {
				m, err := runPartitioned(Spec{System: sys, Benchmark: benchName,
					Hosts: hosts, Policy: polKind, Opt: oc.Opt}, wl, p, parts)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-6s %-6s %-6s %10.3f %10.3f %10.3f %10.3f %12s %8d\n",
					benchName, polKind, oc.Name, m.Time.Seconds(),
					m.MaxCompute.Seconds(), m.CommTime().Seconds(), m.MaxComm.Seconds(),
					fmtBytes(m.CommBytes), m.Rounds)
				switch oc.Name {
				case "UNOPT":
					unopt = append(unopt, m.Time.Seconds())
				case "OSTI":
					osti = append(osti, m.Time.Seconds())
				}
			}
		}
	}
	var ratios []float64
	for i := range unopt {
		ratios = append(ratios, unopt[i]/osti[i])
	}
	fmt.Fprintf(w, "geomean speedup of OSTI over UNOPT: %.2fx (paper: ~2.6x)\n", Geomean(ratios))
	return nil
}
