package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gluon/internal/trace"
)

// staleAfter is when a host's heartbeat is flagged as stale on the board.
const staleAfter = 3 * time.Second

// topCmd is a live terminal dashboard for a running gluon cluster. It
// attaches to any trace collector's sideband address — a standalone
// `gluon-trace serve` process or a collector embedded with `gluon-run
// -top-addr` / `examples/tcp-cluster -collect` — polls it for the live
// dashboard state once per -refresh, and redraws a top(1)-style view:
//
//   - per-host round cursor, current phase, heartbeat staleness, and a
//     proportional path-breakdown bar (compute/encode/wire/recv-wait/fold/
//     apply/straggler-wait) from the critical-path attribution
//   - shipper session states, so a host that died shows as DISCONNECTED
//     with the reason instead of silently freezing
//   - the rolling critical-path verdict and the last few per-round gating
//     attributions
//   - a communication-volume sparkline and the optimization ledger
//
// With -o jsonl it prints each poll's update as one JSON line instead of
// drawing, for scripting; -once exits after the first update (the snapshot).
func topCmd(ctx context.Context, fs *flag.FlagSet, args []string, stdout io.Writer) error {
	refresh := fs.Duration("refresh", time.Second, "poll interval")
	rounds := fs.Int("rounds", 8, "trailing critical-path rounds to show")
	output := fs.String("o", "", `"jsonl" prints each poll's update as a JSON line instead of drawing`)
	once := fs.Bool("once", false, "print one update and exit")
	addr, err := parseOne(fs, args)
	if err != nil {
		return err
	}
	w, err := trace.AttachWatcher(addr)
	if err != nil {
		return err
	}
	defer w.Close()

	jsonl := *output == "jsonl"
	b := &board{rounds: *rounds, addr: addr}
	if !jsonl {
		fmt.Fprint(stdout, "\x1b[?25l\x1b[2J") // hide cursor, clear once
		defer fmt.Fprint(stdout, "\x1b[?25h\n")
	}
	enc := json.NewEncoder(stdout)
	for {
		u, err := w.Poll()
		if err != nil {
			return err
		}
		b.observe(&u)
		if jsonl {
			if err := enc.Encode(&u); err != nil {
				return err
			}
		} else {
			b.draw(stdout, &u)
		}
		if *once {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*refresh):
		}
	}
}

// board holds the cross-update state a dashboard needs: the byte-volume
// history behind the sparkline.
type board struct {
	rounds    int
	addr      string
	lastBytes uint64
	lastNs    int64
	rates     []float64 // bytes/sec samples, newest last
}

// observe folds an update into the rate history.
func (b *board) observe(u *trace.ViewUpdate) {
	total := u.ValueBytes + u.MetaBytes + u.GIDBytes
	if b.lastNs != 0 && u.NowNs > b.lastNs && total >= b.lastBytes {
		dt := float64(u.NowNs-b.lastNs) / 1e9
		b.rates = append(b.rates, float64(total-b.lastBytes)/dt)
		if len(b.rates) > 48 {
			b.rates = b.rates[len(b.rates)-48:]
		}
	}
	b.lastBytes, b.lastNs = total, u.NowNs
}

func (b *board) draw(out io.Writer, u *trace.ViewUpdate) {
	var s strings.Builder
	s.WriteString("\x1b[H") // home; \x1b[K per line, \x1b[J at end
	line := func(format string, args ...any) {
		fmt.Fprintf(&s, format, args...)
		s.WriteString("\x1b[K\n")
	}

	label := u.Label
	if label == "" {
		label = "gluon"
	}
	line("gluon-trace top — %s @ %s    round %d    seq %d    %s",
		label, b.addr, u.MaxRound, u.Seq, time.Now().Format("15:04:05"))
	line("")

	// Session states: a disconnected shipper is the load-bearing fact.
	disconnected := map[int32]string{}
	if len(u.Sessions) > 0 {
		parts := make([]string, 0, len(u.Sessions))
		for _, si := range u.Sessions {
			name := fmt.Sprintf("#%d", si.ID)
			if len(si.Hosts) > 0 {
				name = fmt.Sprintf("#%d hosts %v", si.ID, si.Hosts)
			}
			switch si.State {
			case "error":
				parts = append(parts, fmt.Sprintf("\x1b[31m%s DISCONNECTED (%s)\x1b[0m", name, si.Error))
				for _, h := range si.Hosts {
					disconnected[h] = si.Error
				}
			case "done":
				parts = append(parts, fmt.Sprintf("%s done", name))
			default:
				parts = append(parts, fmt.Sprintf("%s active", name))
			}
		}
		line("sessions: %s", strings.Join(parts, " · "))
		line("")
	}

	// Per-host rows: heartbeat cursor + path-breakdown bar.
	hosts := hostRows(u)
	if len(hosts) > 0 {
		line("%5s %7s %-10s %7s %10s  %-34s", "host", "round", "phase", "beat", "bytes", "path breakdown (attributed rounds)")
		for _, h := range hosts {
			status := ""
			switch {
			case disconnected[h.host] != "":
				status = "  \x1b[31mDISCONNECTED\x1b[0m"
			case h.haveBeat && h.stale > staleAfter:
				status = fmt.Sprintf("  \x1b[33mSTALE %v\x1b[0m", h.stale.Round(time.Second))
			}
			beat := "-"
			if h.haveBeat {
				beat = h.stale.Round(100 * time.Millisecond).String()
			}
			line("%5d %7s %-10s %7s %10s  %-34s%s",
				h.host, h.round, h.phase, beat, h.bytes, h.bar, status)
		}
		line("")
	}

	// Comm-volume sparkline.
	if len(b.rates) > 0 {
		cur := b.rates[len(b.rates)-1]
		line("comm  %s  %s/s", sparkline(b.rates, 48), trace.FmtBytes(uint64(cur)))
		line("")
	}

	// Trailing critical-path rounds + rolling verdict.
	tail := u.Rounds
	if len(tail) > b.rounds {
		tail = tail[len(tail)-b.rounds:]
	}
	if len(tail) > 0 {
		line("critical path (last %d rounds):", len(tail))
		for i := range tail {
			r := &tail[i]
			line("  round %-5d wall %-10v gate host %-3d %-15s margin %v",
				r.Round, time.Duration(r.WallNs).Round(time.Microsecond), r.Gate,
				r.GatePhase, time.Duration(r.MarginNs).Round(time.Microsecond))
		}
	}
	line("verdict: %s", u.Verdict.String())
	if u.Ledger.BaselineBytes > 0 {
		line("ledger: shipped %s vs naive %s — sparsity %s · invariants %s",
			trace.FmtBytes(u.Ledger.ShippedBytes), trace.FmtBytes(u.Ledger.BaselineBytes),
			trace.FmtBytes(u.Ledger.SparsitySavedBytes), trace.FmtBytes(u.Ledger.InvariantSavedBytes))
	}
	s.WriteString("\x1b[J") // clear whatever an earlier, taller frame left
	io.WriteString(out, s.String())
}

// hostRow is one rendered host line.
type hostRow struct {
	host     int32
	round    string
	phase    string
	haveBeat bool
	stale    time.Duration
	bytes    string
	bar      string
}

// hostRows joins heartbeats (live cursor) with the attribution totals
// (breakdown bar), keyed by host.
func hostRows(u *trace.ViewUpdate) []hostRow {
	rows := map[int32]*hostRow{}
	get := func(h int32) *hostRow {
		r := rows[h]
		if r == nil {
			r = &hostRow{host: h, round: "-", phase: "-", bytes: "-", bar: ""}
			rows[h] = r
		}
		return r
	}
	for _, hb := range u.Hearts {
		r := get(hb.Host)
		r.round = fmt.Sprintf("%d", hb.Round)
		r.phase = hb.Phase.String()
		r.haveBeat = true
		r.stale = time.Duration(u.NowNs - hb.BeatNs)
		if r.stale < 0 {
			r.stale = 0
		}
		r.bytes = trace.FmtBytes(hb.Bytes)
	}
	for i := range u.Hosts {
		hp := &u.Hosts[i]
		r := get(hp.Host)
		r.bar = phaseBar(hp, 34)
		if r.bytes == "-" {
			r.bytes = trace.FmtBytes(hp.Bytes)
		}
	}
	out := make([]hostRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].host < out[j].host })
	return out
}

// barGlyphs maps each CritPhase to the character filling its bar segment.
var barGlyphs = [trace.NumCritPhases]byte{'c', 'e', 'w', 'r', 'f', 'a', '~'}

// phaseBar renders a host's taxonomy split as a fixed-width proportional
// bar: c=compute e=encode w=wire r=recvwait f=fold a=apply ~=straggler-wait.
func phaseBar(h *trace.HostPhaseSum, width int) string {
	total := h.TotalNs()
	if total <= 0 {
		return strings.Repeat(".", width)
	}
	var bar []byte
	for p := trace.CritPhase(0); p < trace.NumCritPhases; p++ {
		n := int(float64(h.SubNs[p]) / float64(total) * float64(width))
		for i := 0; i < n && len(bar) < width; i++ {
			bar = append(bar, barGlyphs[p])
		}
	}
	for len(bar) < width {
		bar = append(bar, '.')
	}
	return string(bar)
}

// sparkGlyphs are the eight block heights of the comm sparkline.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat(" ", len(vals))
	}
	var s strings.Builder
	for _, v := range vals {
		i := int(v / max * float64(len(sparkGlyphs)-1))
		s.WriteRune(sparkGlyphs[i])
	}
	return s.String()
}
