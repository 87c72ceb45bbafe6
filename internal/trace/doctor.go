package trace

// Postmortem diagnosis (DESIGN.md §4.7): load the bundles a crashed
// cluster left behind, place them on one time axis, and explain the death
// causally — which rank failed first, how the poison propagated, what the
// survivors were doing when they gave up, and how much work a restore
// would lose. `gluon-trace doctor` is a thin CLI over this.
//
// Time axes. Every process's session clock is unrelated to every other's.
// Two alignment sources, best first:
//
//   - sideband-measured ClockInfo (EstimateOffset, recorded into each
//     bundle when the run shipped traces): maps each session onto the
//     collector's clock with ±minRTT/2 uncertainty;
//   - the wall-clock fallback: each bundle records (WallUnixNano,
//     SessionNs) at dump time, so epochWall = WallUnixNano - SessionNs
//     places the session's epoch on the wall clock, good to NTP drift.
//
// The measured path is used only when every session has one; mixing axes
// would be worse than wall everywhere.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// LoadBundles reads every postmortem bundle under dir (non-recursive),
// ordered by file name. Unreadable or undecodable bundles are skipped and
// reported in the second return; an empty directory is an error — doctor
// must not diagnose "healthy" from a mistyped path.
func LoadBundles(dir string) ([]*Bundle, []error, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var bundles []*Bundle
	var bad []error
	for _, ent := range ents {
		if ent.IsDir() || !isBundleFileName(ent.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		var b *Bundle
		if err == nil {
			b, err = decodeBundle(data)
		}
		if err != nil {
			bad = append(bad, fmt.Errorf("%s: %w", ent.Name(), err))
			continue
		}
		bundles = append(bundles, b)
	}
	if len(bundles) == 0 {
		if len(bad) > 0 {
			return nil, bad, fmt.Errorf("trace: no readable postmortem bundles in %s (%d corrupt)", dir, len(bad))
		}
		return nil, nil, fmt.Errorf("trace: no postmortem bundles in %s", dir)
	}
	return bundles, bad, nil
}

// decodeBundle reads one bundle file. JSON of another shape decodes to a
// zero Bundle, which would diagnose host 0 as the failure, so a version
// other than BundleVersion is refused.
func decodeBundle(data []byte) (*Bundle, error) {
	b := &Bundle{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, err
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("not a postmortem bundle of version %d (version %d)", BundleVersion, b.Version)
	}
	return b, nil
}

// ChainEntry is one link of the failure cascade, on the aligned time axis.
type ChainEntry struct {
	AtNs    int64 // aligned ns since the first entry
	Host    int32
	Peer    int32
	Trigger Trigger
	Round   int32
	Phase   string
	Cause   string
}

// StallSummary condenses a stall bundle for the report.
type StallSummary struct {
	Suspect int32
	Phase   string
	Detail  string
	Stack   string // excerpt of the suspect-side goroutine dump
}

// Diagnosis is doctor's structured verdict.
type Diagnosis struct {
	Bundles  int
	Hosts    []int32 // hosts that left bundles, ascending
	Sessions int     // distinct tracing sessions (processes)
	// ClockSource is "sideband" when every session had a measured offset,
	// else "wall"; ClockNote renders the alignment quality.
	ClockSource string
	ClockNote   string

	// FailedRank is the rank diagnosed as the original failure (-1 if the
	// evidence is inconclusive). SilentDeath is true when that rank left no
	// bundle of its own (kill -9, power loss) and was inferred from the
	// survivors naming it.
	FailedRank  int32
	SilentDeath bool
	// RootTrigger/RootCause/RootRound describe the first failure event.
	RootTrigger Trigger
	RootCause   string
	RootRound   int32
	RootPhase   string

	Chain []ChainEntry
	Stall *StallSummary

	// LastCkptEpoch is the newest checkpoint any host completed (-1 none);
	// RoundsLost is the recompute distance from there to the failure round.
	LastCkptEpoch int64
	RoundsLost    int64

	// Merged is the union of ring events across sessions, aligned and
	// Start-ordered on the chosen axis; MergedDropped sums ring overwrites.
	// The events can run to megabytes, so the JSON verdict — which is for
	// scripting — leaves them out (the doctor's -o exports the timeline).
	Merged        []Event `json:"-"`
	MergedDropped uint64
	MergedClocks  []ClockInfo
}

// Diagnose builds a Diagnosis from loaded bundles.
func Diagnose(bundles []*Bundle) *Diagnosis {
	d := &Diagnosis{Bundles: len(bundles), FailedRank: -1, LastCkptEpoch: -1, RootRound: -1}
	if len(bundles) == 0 {
		return d
	}

	// Group by session; pick each session's latest bundle as its event
	// source (same ring, frozen latest = largest window).
	bySession := map[string]*Bundle{}
	hosts := map[int32]bool{}
	for _, b := range bundles {
		hosts[b.Host] = true
		cur := bySession[b.TraceID]
		if cur == nil || b.SessionNs > cur.SessionNs {
			bySession[b.TraceID] = b
		}
		if b.LastCkptEpoch > d.LastCkptEpoch {
			d.LastCkptEpoch = b.LastCkptEpoch
		}
	}
	for h := range hosts {
		d.Hosts = append(d.Hosts, h)
	}
	sort.Slice(d.Hosts, func(i, j int) bool { return d.Hosts[i] < d.Hosts[j] })
	d.Sessions = len(bySession)

	// Choose the axis: sideband offsets when every session measured one.
	measured := true
	for _, b := range bySession {
		if b.Clock.Samples == 0 {
			measured = false
			break
		}
	}
	// sessionOffset maps a session's clock onto the common axis (add to a
	// session timestamp). Wall axis: offset = epochWall = Wall - SessionNs,
	// which lands timestamps on UnixNano. Sideband axis: the collector's
	// clock, offset = measured OffsetNs.
	sessionOffset := map[string]int64{}
	if measured {
		d.ClockSource = "sideband"
		var worst int64
		for id, b := range bySession {
			sessionOffset[id] = b.Clock.OffsetNs
			if b.Clock.UncertaintyNs > worst {
				worst = b.Clock.UncertaintyNs
			}
		}
		d.ClockNote = fmt.Sprintf("sideband-measured offsets, worst uncertainty ±%v", time.Duration(worst))
	} else {
		d.ClockSource = "wall"
		for id, b := range bySession {
			sessionOffset[id] = b.WallUnixNano - b.SessionNs
		}
		d.ClockNote = "wall-clock alignment (no measured offsets in every session; trust to NTP drift)"
	}

	// Merge events: one source bundle per session, each rebased by its
	// session's offset (session order fixed so ties sort reproducibly).
	ids := make([]string, 0, len(bySession))
	for id := range bySession {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	srcs := make([]clockedEvents, 0, len(ids))
	for _, id := range ids {
		b := bySession[id]
		srcs = append(srcs, clockedEvents{events: b.Events, offsetNs: sessionOffset[id]})
		d.MergedDropped += b.Dropped
		if b.Clock.Samples > 0 {
			d.MergedClocks = append(d.MergedClocks, b.Clock)
		}
	}
	d.Merged = mergeAligned(srcs)

	// Build the cascade: one entry per bundle at its aligned dump moment.
	for _, b := range bundles {
		d.Chain = append(d.Chain, ChainEntry{
			AtNs:    b.SessionNs + sessionOffset[b.TraceID],
			Host:    b.Host,
			Peer:    b.Peer,
			Trigger: b.Trigger,
			Round:   b.Round,
			Phase:   b.Phase,
			Cause:   b.Cause,
		})
	}
	sort.Slice(d.Chain, func(i, j int) bool { return d.Chain[i].AtNs < d.Chain[j].AtNs })
	base := d.Chain[0].AtNs
	for i := range d.Chain {
		d.Chain[i].AtNs -= base
	}

	// Root cause. Primary failures carry their own trigger classes; the
	// earliest of those wins. Absent any, the cluster's survivors only saw
	// the death secondhand (dead-host/peer-poison naming a peer): the rank
	// most often named as peer that left no bundle died silently.
	primary := func(t Trigger) bool {
		switch t {
		case TriggerInjectedFault, TriggerPanic, TriggerSyncInvariant, TriggerRestoreFailed, TriggerStall:
			return true
		}
		return false
	}
	for _, c := range d.Chain {
		if primary(c.Trigger) {
			d.FailedRank = c.Host
			if c.Trigger == TriggerStall && c.Peer >= 0 {
				// A stall bundle is written by the detector; the suspect is
				// the peer it names.
				d.FailedRank = c.Peer
			}
			d.RootTrigger, d.RootCause, d.RootRound, d.RootPhase = c.Trigger, c.Cause, c.Round, c.Phase
			break
		}
	}
	if d.FailedRank < 0 {
		named := map[int32]int{}
		firstNamed := map[int32]int64{}
		for _, c := range d.Chain {
			if (c.Trigger == TriggerDeadHost || c.Trigger == TriggerPeerPoison) && c.Peer >= 0 && !hosts[c.Peer] {
				named[c.Peer]++
				if _, ok := firstNamed[c.Peer]; !ok {
					firstNamed[c.Peer] = c.AtNs
				}
			}
		}
		best, bestVotes := int32(-1), 0
		for h, votes := range named {
			if votes > bestVotes || (votes == bestVotes && best >= 0 && firstNamed[h] < firstNamed[best]) {
				best, bestVotes = h, votes
			}
		}
		if best >= 0 {
			d.FailedRank, d.SilentDeath = best, true
			for _, c := range d.Chain {
				if c.Peer == best {
					d.RootTrigger, d.RootCause, d.RootRound, d.RootPhase = c.Trigger, c.Cause, c.Round, c.Phase
					break
				}
			}
		} else if len(d.Chain) > 0 {
			// Everyone who failed left a bundle; the earliest is the root.
			c := d.Chain[0]
			d.FailedRank, d.RootTrigger, d.RootCause, d.RootRound, d.RootPhase = c.Host, c.Trigger, c.Cause, c.Round, c.Phase
		}
	}

	// Stall summary: the first stall bundle, with a stack excerpt.
	for _, b := range bundles {
		if b.Trigger != TriggerStall {
			continue
		}
		d.Stall = &StallSummary{Suspect: b.Peer, Phase: b.Phase, Detail: b.Detail, Stack: stackExcerpt(b.Stacks, 24)}
		break
	}
	if d.Stall == nil {
		// No stall: still surface what phase the stalled/failed round was in
		// from the root bundle's heartbeats, if a bundle for the failed rank
		// exists.
		for _, b := range bundles {
			if b.Host == d.FailedRank && b.Stacks != "" {
				d.Stall = &StallSummary{Suspect: b.Host, Phase: b.Phase, Stack: stackExcerpt(b.Stacks, 24)}
				break
			}
		}
	}

	// Recompute distance.
	var maxRound int32 = -1
	for _, b := range bundles {
		if b.Round > maxRound {
			maxRound = b.Round
		}
		for i := range b.Events {
			maxRound = max(maxRound, b.Events[i].Round)
		}
	}
	if d.LastCkptEpoch >= 0 && maxRound >= 0 {
		d.RoundsLost = int64(maxRound) - d.LastCkptEpoch
		if d.RoundsLost < 0 {
			d.RoundsLost = 0
		}
	} else if maxRound >= 0 {
		d.RoundsLost = int64(maxRound) + 1
	}
	return d
}

// stackExcerpt returns the first maxLines lines of a goroutine dump,
// preferring the first non-idle goroutine block.
func stackExcerpt(stacks string, maxLines int) string {
	if stacks == "" {
		return ""
	}
	lines := strings.Split(stacks, "\n")
	if len(lines) > maxLines {
		lines = lines[:maxLines]
		lines = append(lines, "... (truncated)")
	}
	return strings.Join(lines, "\n")
}

// FinalWindow trims merged, aligned events to the window ending at the last
// event — "the final seconds" Chrome trace a postmortem wants.
func FinalWindow(events []Event, window time.Duration) []Event {
	if len(events) == 0 || window <= 0 {
		return events
	}
	end := events[len(events)-1].Start + events[len(events)-1].Dur
	cut := end - int64(window)
	i := sort.Search(len(events), func(i int) bool { return events[i].Start >= cut })
	return events[i:]
}

// WriteReport renders the diagnosis transcript the way an operator reads
// it: verdict first, then the cascade, then the forensic details.
func (d *Diagnosis) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "gluon-doctor: %d bundle(s) from host(s) %s across %d process session(s)\n",
		d.Bundles, joinHosts(d.Hosts), d.Sessions)
	fmt.Fprintf(w, "clock: %s\n", d.ClockNote)
	fmt.Fprintln(w)
	if d.FailedRank >= 0 {
		death := "left its own bundle"
		if d.SilentDeath {
			death = "died silently — no bundle of its own; inferred from survivors"
		}
		fmt.Fprintf(w, "verdict: host %d failed first (%s)\n", d.FailedRank, death)
		fmt.Fprintf(w, "  trigger: %s", d.RootTrigger)
		if d.RootCause != "" {
			fmt.Fprintf(w, " — %s", d.RootCause)
		}
		fmt.Fprintln(w)
		if d.RootRound >= 0 {
			fmt.Fprintf(w, "  at: round %d", d.RootRound)
			if d.RootPhase != "" {
				fmt.Fprintf(w, ", phase %s", d.RootPhase)
			}
			fmt.Fprintln(w)
		}
	} else {
		fmt.Fprintln(w, "verdict: inconclusive — no primary failure and no silently missing rank")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "failure cascade (aligned):")
	for _, c := range d.Chain {
		at := time.Duration(c.AtNs)
		line := fmt.Sprintf("  +%-12s host %d  %-15s", at.Round(time.Microsecond), c.Host, c.Trigger)
		if c.Peer >= 0 {
			line += fmt.Sprintf(" peer %d", c.Peer)
		}
		if c.Round >= 0 {
			line += fmt.Sprintf(" (round %d", c.Round)
			if c.Phase != "" {
				line += ", " + c.Phase
			}
			line += ")"
		}
		if c.Cause != "" {
			line += ": " + c.Cause
		}
		fmt.Fprintln(w, line)
	}
	if d.Stall != nil {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "last known activity of host %d", d.Stall.Suspect)
		if d.Stall.Phase != "" {
			fmt.Fprintf(w, " (phase %s)", d.Stall.Phase)
		}
		fmt.Fprintln(w, ":")
		if d.Stall.Detail != "" {
			fmt.Fprintf(w, "  %s\n", d.Stall.Detail)
		}
		if d.Stall.Stack != "" {
			for _, l := range strings.Split(d.Stall.Stack, "\n") {
				fmt.Fprintf(w, "    %s\n", l)
			}
		}
	}
	fmt.Fprintln(w)
	switch {
	case d.LastCkptEpoch >= 0:
		fmt.Fprintf(w, "checkpoint: last completed epoch %d — a restore replays %d round(s)\n",
			d.LastCkptEpoch, d.RoundsLost)
	default:
		fmt.Fprintf(w, "checkpoint: none taken — a restart recomputes all %d round(s) from scratch\n", d.RoundsLost)
	}
	if len(d.Merged) > 0 {
		span := time.Duration(d.Merged[len(d.Merged)-1].Start - d.Merged[0].Start)
		fmt.Fprintf(w, "merged trace: %d event(s) spanning %v (%d dropped to ring wrap before the window)\n",
			len(d.Merged), span.Round(time.Millisecond), d.MergedDropped)
	}
}

func joinHosts(hs []int32) string {
	if len(hs) == 0 {
		return "none"
	}
	parts := make([]string, len(hs))
	for i, h := range hs {
		parts[i] = fmt.Sprint(h)
	}
	return strings.Join(parts, ",")
}
