package bench

import (
	"fmt"
	"math"
	"time"

	facade "gluon"
	"gluon/internal/dsys"
	"gluon/internal/gemini"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// SystemID names a system under test: one of the facade's Gluon-based
// systems, or the Gemini-style baseline.
type SystemID = facade.System

// The systems of the evaluation.
const (
	DLigra           = facade.DLigra
	DGalois          = facade.DGalois
	DIrGL            = facade.DIrGL
	Gemini  SystemID = "gemini"
)

// Benchmarks are the four applications of the evaluation.
var Benchmarks = []string{"bfs", "cc", "pr", "sssp"}

// Spec is one experimental configuration.
type Spec struct {
	System    SystemID
	Benchmark string // bfs, cc, pr, sssp
	Hosts     int
	Policy    partition.Kind
	Opt       gluon.Options
}

// Measurement is one run's outcome.
type Measurement struct {
	Spec       Spec
	Time       time.Duration
	MaxCompute time.Duration
	// MaxComm sums per-round maxima of measured sync time across hosts
	// (dsys.Result.MaxComm); zero for systems that don't report it.
	MaxComm   time.Duration
	CommBytes uint64
	Rounds    int
}

// CommTime returns the non-overlapping communication estimate (wall minus
// max-compute), clamped at zero — the Figure 10 split.
func (m Measurement) CommTime() time.Duration {
	if m.Time <= m.MaxCompute {
		return 0
	}
	return m.Time - m.MaxCompute
}

// RunSpec executes one configuration and returns the measurement.
func RunSpec(s Spec, w *Workload, p Params) (Measurement, error) {
	if s.System == Gemini {
		edges := w.input(s.Benchmark)
		res, err := gemini.Run(w.NumNodes, edges, gemini.Algorithm(s.Benchmark), gemini.Config{
			Hosts:     s.Hosts,
			Workers:   p.Workers,
			Source:    uint64(w.Source),
			Tolerance: p.PRTolerance,
			MaxIters:  p.PRMaxIters,
			Net:       p.Net,
		})
		if err != nil {
			return Measurement{Spec: s}, err
		}
		return Measurement{Spec: s, Time: res.Time, CommBytes: res.TotalCommBytes, Rounds: res.Rounds}, nil
	}
	parts, err := w.partition(s.Benchmark, s.Policy, s.Hosts)
	if err != nil {
		return Measurement{Spec: s}, err
	}
	return runPartitioned(s, w, p, parts)
}

// runPartitioned runs a Gluon-based configuration over built partitions
// (Figure 10 reuses one partitioning across optimization settings).
func runPartitioned(s Spec, w *Workload, p Params, parts []*partition.Partition) (Measurement, error) {
	m := Measurement{Spec: s}
	var factory dsys.ProgramFactory
	maxRounds := 0
	switch s.Benchmark {
	case "bfs":
		factory = facade.NewBFS(s.System, uint64(w.Source), p.Workers)
	case "sssp":
		factory = facade.NewSSSP(s.System, uint64(w.Source), p.Workers)
	case "cc":
		factory = facade.NewCC(s.System, p.Workers)
	case "pr":
		factory = facade.NewPageRank(s.System, p.PRTolerance, p.Workers)
		maxRounds = p.PRMaxIters
	default:
		return m, fmt.Errorf("bench: unknown benchmark %q", s.Benchmark)
	}
	res, err := dsys.RunPartitioned(parts, dsys.RunConfig{
		Hosts:     s.Hosts,
		Policy:    s.Policy,
		Opt:       s.Opt,
		MaxRounds: maxRounds,
		Net:       p.Net,
		Trace:     p.Trace,
	}, factory)
	if err != nil {
		return m, err
	}
	m.Time = res.Time
	m.MaxCompute = res.MaxCompute
	m.MaxComm = res.MaxComm
	m.CommBytes = res.TotalCommBytes
	m.Rounds = res.Rounds
	return m, nil
}

// Geomean returns the geometric mean of positive ratios.
func Geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, r := range ratios {
		if r > 0 {
			sum += math.Log(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// fmtBytes renders a byte count the way the paper annotates volumes.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// fmtDur renders a duration with ms precision.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
