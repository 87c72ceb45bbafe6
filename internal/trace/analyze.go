package trace

import (
	"fmt"
	"io"
	"time"
)

// Summary is the offline rollup of a trace: the paper-style tables —
// per-round communication volume, per-peer skew, phase time breakdown, and
// the encoding-mode histogram — that otherwise require hand-instrumenting a
// run. It is a view of the one fold (Rollup.Summary, rollup.go); print it with
// WriteTables.
type Summary struct {
	Label   string `json:"label,omitempty"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
	Hosts   int    `json:"hosts"`
	// Clocks is the per-host offset table of a merged multi-process trace
	// (empty for single-process traces).
	Clocks []ClockInfo `json:"clocks,omitempty"`
	// Sessions are the sideband shipper lifecycle records of a collector
	// merge; a session in state "error" disconnected without an orderly bye.
	Sessions []SessionInfo `json:"sessions,omitempty"`
	// PeerCap caps the per-peer skew table WriteTables prints (0 = all
	// rows). The full Peers list is always kept, e.g. for JSON output.
	PeerCap int `json:"-"`
	// WallNs spans the earliest event start to the latest event end.
	WallNs int64 `json:"wall_ns"`

	// Totals over all PhaseEncode events (i.e. every sync message sent).
	Messages   uint64 `json:"messages"`
	ValueBytes uint64 `json:"value_bytes"`
	MetaBytes  uint64 `json:"metadata_bytes"`
	GIDBytes   uint64 `json:"gid_bytes"`

	Rounds []RoundStat      `json:"rounds"`
	Phases []PhaseStat      `json:"phases"`
	Peers  []PeerStat       `json:"peers"`
	Modes  [NumModes]uint64 `json:"modes"`
	Faults []Event          `json:"faults,omitempty"`
}

// RoundStat aggregates one BSP round. Byte columns come from encode spans;
// the time columns are maxima across hosts (each host's time is the sum of
// its spans of that phase in the round), matching the paper's
// max-across-hosts breakdown.
type RoundStat struct {
	Round     int32  `json:"round"`
	Messages  uint64 `json:"messages"`
	Value     uint64 `json:"value"`
	Meta      uint64 `json:"meta"`
	GID       uint64 `json:"gid"`
	SyncNs    int64  `json:"sync_ns"`
	ComputeNs int64  `json:"compute_ns"`
	BarrierNs int64  `json:"barrier_ns"`
}

// PhaseStat is one phase's global count and time.
type PhaseStat struct {
	Phase   Phase  `json:"phase"`
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// PeerStat is one directed (sender, receiver) pair's volume, the per-peer
// skew table.
type PeerStat struct {
	Host     int32  `json:"host"`
	Peer     int32  `json:"peer"`
	Messages uint64 `json:"messages"`
	Bytes    uint64 `json:"bytes"`
}

// TotalBytes is the summed payload volume over all messages.
func (s *Summary) TotalBytes() uint64 { return s.ValueBytes + s.MetaBytes + s.GIDBytes }

// WriteTables prints the summary as the paper-style tables.
func (s *Summary) WriteTables(w io.Writer) error {
	label := s.Label
	if label != "" {
		label = " (" + label + ")"
	}
	if _, err := fmt.Fprintf(w, "trace%s: %d events, %d hosts, %d rounds, %d dropped, wall %v\n",
		label, s.Events, s.Hosts, len(s.Rounds), s.Dropped, round3(time.Duration(s.WallNs))); err != nil {
		return err
	}
	fmt.Fprintf(w, "totals: %d messages, %s (value %s / metadata %s / gids %s)\n",
		s.Messages, FmtBytes(s.TotalBytes()), FmtBytes(s.ValueBytes), FmtBytes(s.MetaBytes), FmtBytes(s.GIDBytes))
	if len(s.Clocks) > 0 {
		fmt.Fprint(w, "clock offsets (applied at merge):")
		for _, ci := range s.Clocks {
			fmt.Fprintf(w, " host %d %+v ±%v;", ci.Host,
				round3(time.Duration(ci.OffsetNs)), round3(time.Duration(ci.UncertaintyNs)))
		}
		fmt.Fprintln(w)
	}
	if len(s.Sessions) > 0 {
		fmt.Fprint(w, "sideband sessions:")
		for _, si := range s.Sessions {
			name := si.Addr
			if len(si.Hosts) > 0 {
				name = fmt.Sprintf("hosts %v", si.Hosts)
			}
			switch si.State {
			case "error":
				fmt.Fprintf(w, " #%d %s DISCONNECTED (%s);", si.ID, name, si.Error)
			default:
				fmt.Fprintf(w, " #%d %s %s;", si.ID, name, si.State)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	if len(s.Rounds) > 0 {
		fmt.Fprintln(w, "per-round volume & time (time columns are max across hosts):")
		fmt.Fprintf(w, "%6s %8s %10s %10s %10s %12s %12s %12s\n",
			"round", "msgs", "value", "meta", "gids", "sync", "compute", "barrier")
		for _, r := range s.Rounds {
			name := fmt.Sprintf("%d", r.Round)
			if r.Round < 0 {
				name = "init"
			}
			fmt.Fprintf(w, "%6s %8d %10s %10s %10s %12v %12v %12v\n",
				name, r.Messages, FmtBytes(r.Value), FmtBytes(r.Meta), FmtBytes(r.GID),
				round3(time.Duration(r.SyncNs)), round3(time.Duration(r.ComputeNs)), round3(time.Duration(r.BarrierNs)))
		}
		fmt.Fprintln(w)
	}

	if len(s.Peers) > 0 {
		rows := s.Peers
		if s.PeerCap > 0 && len(rows) > s.PeerCap {
			rows = rows[:s.PeerCap]
		}
		fmt.Fprintln(w, "per-peer volume (sender -> receiver, heaviest first):")
		fmt.Fprintf(w, "%6s %6s %8s %10s\n", "host", "peer", "msgs", "bytes")
		for _, p := range rows {
			fmt.Fprintf(w, "%6d %6d %8d %10s\n", p.Host, p.Peer, p.Messages, FmtBytes(p.Bytes))
		}
		if n := len(s.Peers) - len(rows); n > 0 {
			fmt.Fprintf(w, "  … %d lighter pairs elided (-top to adjust)\n", n)
		}
		fmt.Fprintln(w)
	}

	if len(s.Phases) > 0 {
		fmt.Fprintln(w, "phase time breakdown (all hosts):")
		fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "phase", "count", "total", "mean")
		for _, p := range s.Phases {
			mean := time.Duration(0)
			if p.Count > 0 {
				mean = time.Duration(p.TotalNs / int64(p.Count))
			}
			fmt.Fprintf(w, "%-10s %10d %12v %12v\n", p.Phase, p.Count, round3(time.Duration(p.TotalNs)), round3(mean))
		}
		fmt.Fprintln(w)
	}

	if s.Messages > 0 {
		fmt.Fprintln(w, "encoding modes:")
		fmt.Fprintf(w, "%-10s %8s\n", "mode", "msgs")
		for m := 0; m < NumModes; m++ {
			if s.Modes[m] > 0 {
				fmt.Fprintf(w, "%-10s %8d\n", ModeName(int8(m)), s.Modes[m])
			}
		}
		fmt.Fprintln(w)
	}

	if len(s.Faults) > 0 {
		fmt.Fprintln(w, "fault timeline:")
		for _, f := range s.Faults {
			fmt.Fprintf(w, "  t=%-12v host %-3d peer %-3d %s\n",
				round3(time.Duration(f.Start)), f.Host, f.Peer, f.Detail)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// round3 trims a duration to ~3 significant sub-unit digits for tables.
func round3(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d
	}
}

// FmtBytes renders byte counts with binary-prefix units.
func FmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
