package perfdb

// Trend analysis over the append-only history: series extraction grouped
// by (fingerprint, benchmark), sparkline rendering, and the regression
// check behind `gluon-perf -check`. Comparison never crosses fingerprints
// — a 2× faster machine starts a fresh series instead of tripping (or
// masking) a gate — and the pass band widens with the series' own recorded
// noise, so a quiet machine gates tighter than a noisy one.

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Series is one benchmark's trajectory on one machine class, in append
// order.
type Series struct {
	FingerprintID string
	Fingerprint   Fingerprint
	Name          string
	Ns            []int64
	Noise         []int64
	Allocs        []int64
	Times         []time.Time
}

// Latest returns the newest point of the series.
func (s *Series) Latest() (ns, noise, allocs int64) {
	n := len(s.Ns)
	return s.Ns[n-1], s.Noise[n-1], s.Allocs[n-1]
}

// Trailing returns the ns/op values before the latest point, keeping at
// most window of them (0 = all).
func (s *Series) Trailing(window int) []int64 {
	prior := s.Ns[:len(s.Ns)-1]
	if window > 0 && len(prior) > window {
		prior = prior[len(prior)-window:]
	}
	return prior
}

// SeriesOf splits a history into per-(fingerprint, benchmark) series,
// ordered by first appearance in the file.
func SeriesOf(recs []Record) []*Series {
	byKey := map[[2]string]*Series{}
	var order []*Series
	for _, rec := range recs {
		for _, b := range rec.Benchmarks {
			k := [2]string{rec.FingerprintID, b.Name}
			s := byKey[k]
			if s == nil {
				s = &Series{FingerprintID: rec.FingerprintID, Fingerprint: rec.Fingerprint, Name: b.Name}
				byKey[k] = s
				order = append(order, s)
			}
			s.Ns = append(s.Ns, b.NsPerOp)
			s.Noise = append(s.Noise, b.NoiseNs)
			s.Allocs = append(s.Allocs, b.AllocsPerOp)
			s.Times = append(s.Times, rec.Time)
		}
	}
	return order
}

// sparkRunes are the eight levels of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders ns values as a min–max normalized sparkline, keeping
// the trailing width points (0 = all). A flat series renders mid-height.
func Sparkline(ns []int64, width int) string {
	if width > 0 && len(ns) > width {
		ns = ns[len(ns)-width:]
	}
	if len(ns) == 0 {
		return ""
	}
	lo, hi := ns[0], ns[0]
	for _, v := range ns {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, len(ns))
	for i, v := range ns {
		lvl := len(sparkRunes) / 2
		if hi > lo {
			lvl = int(int64(len(sparkRunes)-1) * (v - lo) / (hi - lo))
		}
		out[i] = sparkRunes[lvl]
	}
	return string(out)
}

// CheckOptions parameterizes the regression check.
type CheckOptions struct {
	// Tol is the fractional ns/op regression allowed before noise widening
	// (default 0.05).
	Tol float64
	// Window caps how many trailing points form the reference median
	// (default 8).
	Window int
	// MaxNoiseFrac caps how far recorded noise may widen the band, so a
	// series that recorded garbage noise cannot disable its own gate
	// (default 0.25).
	MaxNoiseFrac float64
}

func (o *CheckOptions) defaults() {
	if o.Tol == 0 {
		o.Tol = 0.05
	}
	if o.Window == 0 {
		o.Window = 8
	}
	if o.MaxNoiseFrac == 0 {
		o.MaxNoiseFrac = 0.25
	}
}

// Regression is one flagged series: the latest point against the trailing
// median, beyond the noise band (or an allocation increase, which no noise
// excuses).
type Regression struct {
	FingerprintID string
	Name          string
	LatestNs      int64
	MedianNs      int64
	// DeltaFrac is latest/median - 1; BandFrac the tolerance it exceeded
	// (tol + noise widening).
	DeltaFrac float64
	BandFrac  float64
	// AllocRegression marks an allocs/op increase over the trailing
	// minimum (deterministic, so always a real hot-path change).
	AllocRegression bool
	LatestAllocs    int64
	BaseAllocs      int64
	// Trend is the series sparkline, newest point last.
	Trend string
}

func (r Regression) String() string {
	if r.AllocRegression {
		return fmt.Sprintf("REGRESSION %s [fp %s]: allocs/op %d -> %d  %s",
			r.Name, r.FingerprintID, r.BaseAllocs, r.LatestAllocs, r.Trend)
	}
	return fmt.Sprintf("REGRESSION %s [fp %s]: latest %d ns/op vs trailing median %d (%+.1f%%, band +%.1f%%)  %s",
		r.Name, r.FingerprintID, r.LatestNs, r.MedianNs, 100*r.DeltaFrac, 100*r.BandFrac, r.Trend)
}

// Check flags regressions in the newest record against the trailing
// history of the same fingerprint. Benchmarks with no prior same-
// fingerprint point pass vacuously — a new machine establishes a baseline,
// it is not measured against someone else's.
func Check(recs []Record, o CheckOptions) []Regression {
	o.defaults()
	if len(recs) == 0 {
		return nil
	}
	latest := recs[len(recs)-1]
	var out []Regression
	for _, s := range SeriesOf(recs) {
		if s.FingerprintID != latest.FingerprintID || len(s.Ns) < 2 {
			continue
		}
		if !s.Times[len(s.Times)-1].Equal(latest.Time) {
			continue // series not present in the newest record
		}
		ns, noise, allocs := s.Latest()
		prior := s.Trailing(o.Window)
		med := median(prior)
		if med <= 0 {
			continue
		}
		reg := Regression{
			FingerprintID: s.FingerprintID,
			Name:          s.Name,
			LatestNs:      ns,
			MedianNs:      med,
			DeltaFrac:     float64(ns)/float64(med) - 1,
			Trend:         Sparkline(s.Ns, o.Window+1),
			LatestAllocs:  allocs,
		}
		// Noise widening: the larger of the latest point's own MAD and the
		// trailing points' median MAD, as a fraction of the median.
		trailNoise := s.Noise[:len(s.Noise)-1]
		if len(trailNoise) > o.Window {
			trailNoise = trailNoise[len(trailNoise)-o.Window:]
		}
		nf := float64(noise) / float64(med)
		if tn := float64(median(trailNoise)) / float64(med); tn > nf {
			nf = tn
		}
		if nf > o.MaxNoiseFrac {
			nf = o.MaxNoiseFrac
		}
		reg.BandFrac = o.Tol + nf
		minAllocs := s.Allocs[0]
		for _, a := range s.Allocs[:len(s.Allocs)-1] {
			if a < minAllocs {
				minAllocs = a
			}
		}
		reg.BaseAllocs = minAllocs
		switch {
		case allocs > minAllocs:
			reg.AllocRegression = true
			out = append(out, reg)
		case reg.DeltaFrac > reg.BandFrac:
			out = append(out, reg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeltaFrac > out[j].DeltaFrac })
	return out
}

// WriteTrends prints per-benchmark trend tables grouped by fingerprint,
// the `gluon-perf` default view. window caps the sparkline and median
// scope (0 = CheckOptions default).
func WriteTrends(w io.Writer, recs []Record, window int) error {
	if window == 0 {
		window = 8
	}
	series := SeriesOf(recs)
	if len(series) == 0 {
		_, err := fmt.Fprintln(w, "perfdb: history is empty")
		return err
	}
	byFP := map[string][]*Series{}
	var fpOrder []string
	for _, s := range series {
		if _, ok := byFP[s.FingerprintID]; !ok {
			fpOrder = append(fpOrder, s.FingerprintID)
		}
		byFP[s.FingerprintID] = append(byFP[s.FingerprintID], s)
	}
	for i, fp := range fpOrder {
		if i > 0 {
			fmt.Fprintln(w)
		}
		ss := byFP[fp]
		first, last := ss[0].Times[0], ss[0].Times[0]
		points := 0
		for _, s := range ss {
			if n := len(s.Times); n > points {
				points = n
			}
			for _, t := range s.Times {
				if t.Before(first) {
					first = t
				}
				if t.After(last) {
					last = t
				}
			}
		}
		fmt.Fprintf(w, "fingerprint %s — %d point(s), %s → %s\n", ss[0].Fingerprint,
			points, first.Format("2006-01-02"), last.Format("2006-01-02"))
		fmt.Fprintf(w, "  %-24s %12s %12s %8s %7s %7s  %s\n",
			"benchmark", "latest ns/op", "median ns/op", "delta", "noise", "allocs", "trend")
		for _, s := range ss {
			ns, noise, allocs := s.Latest()
			prior := s.Trailing(window)
			medStr, deltaStr := "n/a", "n/a"
			if med := median(prior); med > 0 {
				medStr = fmt.Sprintf("%d", med)
				deltaStr = fmt.Sprintf("%+.1f%%", 100*(float64(ns)/float64(med)-1))
			}
			noiseStr := "n/a"
			if ns > 0 {
				noiseStr = fmt.Sprintf("±%.1f%%", 100*float64(noise)/float64(ns))
			}
			if _, err := fmt.Fprintf(w, "  %-24s %12d %12s %8s %7s %7d  %s\n",
				s.Name, ns, medStr, deltaStr, noiseStr, allocs, Sparkline(s.Ns, window+1)); err != nil {
				return err
			}
		}
		if comm := latestComm(recs, fp); comm != nil {
			fmt.Fprintf(w, "  comm: %.0f bytes/round, invariant skips %.0f%%\n",
				comm.BytesPerRound, 100*comm.InvariantSkipShare)
		}
	}
	return nil
}

func latestComm(recs []Record, fp string) *Comm {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].FingerprintID == fp && recs[i].Comm != nil {
			return recs[i].Comm
		}
	}
	return nil
}
