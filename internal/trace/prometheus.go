package trace

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
)

// Prometheus text exposition of the live rollup — the one format the metrics
// endpoint serves, so a standard scraper can chart a run without a sidecar
// translator. Only counters and gauges derived from the fold's Totals —
// nothing here touches the event rings.

// WritePrometheus renders s in the Prometheus text exposition format
// (version 0.0.4).
func WritePrometheus(w io.Writer, s *LiveStats) error {
	bw := bufio.NewWriter(w)
	p := func(format string, args ...any) { fmt.Fprintf(bw, format, args...) }

	p("# HELP gluon_build_info Build metadata as constant-1 labels.\n")
	p("# TYPE gluon_build_info gauge\n")
	p("gluon_build_info{version=%q,goversion=%q} 1\n", buildVersion(), runtime.Version())

	p("# HELP gluon_trace_events_total Trace events recorded this session.\n")
	p("# TYPE gluon_trace_events_total counter\n")
	p("gluon_trace_events_total %d\n", s.Events)

	p("# HELP gluon_trace_dropped_total Trace events lost to ring overwrites.\n")
	p("# TYPE gluon_trace_dropped_total counter\n")
	p("gluon_trace_dropped_total %d\n", s.Dropped)

	p("# HELP gluon_round Highest BSP round observed (-1 before the first round).\n")
	p("# TYPE gluon_round gauge\n")
	p("gluon_round %d\n", s.MaxRound)

	p("# HELP gluon_sync_messages_total Sync messages encoded (one per peer per field sync).\n")
	p("# TYPE gluon_sync_messages_total counter\n")
	p("gluon_sync_messages_total %d\n", s.Messages)

	p("# HELP gluon_sync_bytes_total Sync payload bytes by kind.\n")
	p("# TYPE gluon_sync_bytes_total counter\n")
	p("gluon_sync_bytes_total{kind=\"value\"} %d\n", s.ValueBytes)
	p("gluon_sync_bytes_total{kind=\"metadata\"} %d\n", s.MetaBytes)
	p("gluon_sync_bytes_total{kind=\"gid\"} %d\n", s.GIDBytes)

	var faults uint64
	if ph, ok := s.Phases[PhaseFault.String()]; ok {
		faults = ph.Count
	}
	p("# HELP gluon_faults_total Fault events (poisonings, injected faults, dead hosts).\n")
	p("# TYPE gluon_faults_total counter\n")
	p("gluon_faults_total %d\n", faults)

	p("# HELP gluon_ckpt_writes_total Completed checkpoint writes.\n")
	p("# TYPE gluon_ckpt_writes_total counter\n")
	p("gluon_ckpt_writes_total %d\n", s.CkptWrites)

	p("# HELP gluon_ckpt_bytes_total Checkpoint bytes persisted to disk.\n")
	p("# TYPE gluon_ckpt_bytes_total counter\n")
	p("gluon_ckpt_bytes_total %d\n", s.CkptBytes)

	p("# HELP gluon_ckpt_errors_total Failed checkpoint writes.\n")
	p("# TYPE gluon_ckpt_errors_total counter\n")
	p("gluon_ckpt_errors_total %d\n", s.CkptErrors)

	p("# HELP gluon_ckpt_restores_total Restores performed from checkpoint.\n")
	p("# TYPE gluon_ckpt_restores_total counter\n")
	p("gluon_ckpt_restores_total %d\n", s.CkptRestores)

	p("# HELP gluon_phase_events_total Trace events by phase.\n")
	p("# TYPE gluon_phase_events_total counter\n")
	p("# HELP gluon_phase_duration_seconds_total Time spent in each phase, summed over hosts.\n")
	p("# TYPE gluon_phase_duration_seconds_total counter\n")
	for _, name := range sortedKeys(s.Phases) {
		ph := s.Phases[name]
		p("gluon_phase_events_total{phase=%q} %d\n", name, ph.Count)
		p("gluon_phase_duration_seconds_total{phase=%q} %.9f\n", name, float64(ph.DurNs)/1e9)
	}

	p("# HELP gluon_encode_mode_total Sync messages by wire encoding mode.\n")
	p("# TYPE gluon_encode_mode_total counter\n")
	for _, name := range sortedKeys(s.Modes) {
		p("gluon_encode_mode_total{mode=%q} %d\n", name, s.Modes[name])
	}

	p("# HELP gluon_postmortem_dumps_total Postmortem bundles written, by trigger.\n")
	p("# TYPE gluon_postmortem_dumps_total counter\n")
	dumps := Armed().DumpCounts()
	for i, tr := range Triggers {
		p("gluon_postmortem_dumps_total{trigger=%q} %d\n", string(tr), dumps[i])
	}

	writeHistogram(p, "gluon_round_latency_seconds",
		"BSP round wall time distribution (dsys runner, completed rounds).", s.RoundLatency)
	writeHistogram(p, "gluon_sync_message_bytes",
		"Per-message sync payload byte distribution (encode spans).", s.SyncMsgBytes)
	return bw.Flush()
}

// writeHistogram renders one HistLive as a Prometheus histogram: cumulative
// le buckets, +Inf, sum, count. A nil snapshot still emits HELP/TYPE and an
// empty histogram so the series exists from the first scrape.
func writeHistogram(p func(string, ...any), name, help string, h *HistLive) {
	p("# HELP %s %s\n", name, help)
	p("# TYPE %s histogram\n", name)
	var cum uint64
	if h != nil {
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			p("%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
		}
		cum += h.Counts[len(h.Counts)-1]
		p("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		p("%s_sum %g\n", name, h.Sum)
		p("%s_count %d\n", name, h.Count)
		return
	}
	p("%s_bucket{le=\"+Inf\"} 0\n", name)
	p("%s_sum 0\n", name)
	p("%s_count 0\n", name)
}

// formatBound renders a bucket bound the way Prometheus expects (no
// exponent for round numbers, minimal digits otherwise).
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// buildVersion reads the main module's version from the embedded build info
// ("(devel)" for plain source builds, a tag or pseudo-version otherwise).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// sortedKeys returns a map's keys in lexical order so scrapes are stable.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
