package trace

// Straggler/stall watchdog. BSP clusters fail in two characteristic ways a
// flat error path never explains: a straggler host stretches every round
// (the skew behind the paper's CVC-vs-OEC analysis), or a host stops making
// progress entirely and the cluster hangs at the next rendezvous. The
// watchdog turns both into a named diagnosis: hosts publish compact
// heartbeats (round, live phase, byte counters) into a Health table — local
// hosts read straight from their Recorders, remote ones via transport gossip
// or the collection sideband — and a monitor goroutine flags any round that
// exceeds Factor× the trailing-median round time, naming the suspect host
// and the phase it is stuck in. If the stall persists past StallTimeout the
// report escalates, and the dsys runner feeds it into the comm.PeerError
// path so the cluster fails loudly with the diagnosis attached instead of
// hanging. The report is the diagnosis; the evidence (goroutine stacks, the
// ring tail) is the stall bundle the escalation freezes (postmortem.go).

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Heartbeat is one host's compact liveness record.
type Heartbeat struct {
	Host  int32  `json:"host"`
	Round int32  `json:"round"`
	Phase Phase  `json:"phase"`
	Bytes uint64 `json:"bytes"` // cumulative encode payload bytes
	// BeatNs is the emitter's session-clock time of its last liveness touch.
	BeatNs int64 `json:"beat_ns"`
	// AtNs is the observer's clock when the heartbeat was recorded locally.
	AtNs int64 `json:"at_ns,omitempty"`
}

// HeartbeatOf reads a recorder's liveness atomics into a Heartbeat.
func HeartbeatOf(r *Recorder) Heartbeat {
	return Heartbeat{
		Host:   r.Host(),
		Round:  r.Round(),
		Phase:  r.LivePhase(),
		Bytes:  r.LiveBytes(),
		BeatNs: r.LastBeat(),
	}
}

// Health is the cluster-wide heartbeat table a watchdog monitors. Each host
// has one writer: hosts of this process are read from their recorders at
// every Snapshot, and every other host is written by Update from the one
// link that carries its heartbeats (a gossip drain, or its shipper's
// sideband session), so a slot only ever moves forward in that link's order.
type Health struct {
	mu    sync.RWMutex
	slots map[int32]Heartbeat
	local []*Recorder
	clock func() int64 // observer clock, ns
}

// NewHealth creates a table stamping receipt times from clock (nil means a
// wall-clock-based monotonic source) that reads the hosts of the given
// recorders directly.
func NewHealth(clock func() int64, local ...*Recorder) *Health {
	if clock == nil {
		epoch := time.Now()
		clock = func() int64 { return int64(time.Since(epoch)) }
	}
	return &Health{slots: make(map[int32]Heartbeat), local: local, clock: clock}
}

// Update records the latest heartbeat of a host in another process.
func (h *Health) Update(hb Heartbeat) {
	hb.AtNs = h.clock()
	h.mu.Lock()
	h.slots[hb.Host] = hb
	h.mu.Unlock()
}

// Snapshot returns the current table, ordered by host: the local hosts as
// their recorders read now, the others as last updated.
func (h *Health) Snapshot() []Heartbeat {
	now := h.clock()
	h.mu.RLock()
	out := make([]Heartbeat, 0, len(h.slots)+len(h.local))
	for _, hb := range h.slots {
		out = append(out, hb)
	}
	h.mu.RUnlock()
	for _, r := range h.local {
		hb := HeartbeatOf(r)
		hb.AtNs = now
		out = append(out, hb)
	}
	slices.SortFunc(out, func(a, b Heartbeat) int { return cmp.Compare(a.Host, b.Host) })
	return out
}

// Now returns the table's observer clock reading.
func (h *Health) Now() int64 { return h.clock() }

// WatchdogConfig tunes stall detection. The zero value gets the defaults
// noted per field.
type WatchdogConfig struct {
	// Factor flags a round running longer than Factor× the trailing-median
	// round time (default 8).
	Factor float64
	// MinRound is the floor below which a round is never flagged, and the
	// threshold used before any round has completed (default 2s).
	MinRound time.Duration
	// Poll is the monitor's sampling interval (default 50ms).
	Poll time.Duration
	// StallTimeout escalates a flagged stall that persists this long past
	// the flag (Escalated=true on the report, which the dsys runner turns
	// into a PeerError). Zero never escalates — warn-only.
	StallTimeout time.Duration
	// Window is how many completed round durations feed the trailing median
	// (default 32).
	Window int
	// OnReport receives every stall report: once when a round is flagged and
	// once more with Escalated=true if it persists past StallTimeout. Called
	// from the monitor goroutine.
	OnReport func(*StallReport)
	// Log, when non-nil, gets a one-paragraph rendering of every report.
	Log io.Writer
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Factor <= 0 {
		c.Factor = 8
	}
	if c.MinRound <= 0 {
		c.MinRound = 2 * time.Second
	}
	if c.Poll <= 0 {
		c.Poll = 50 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	return c
}

// StallReport names a suspected straggler or stall.
type StallReport struct {
	// Round is the cluster round (minimum across hosts) that is overdue.
	Round int32 `json:"round"`
	// Suspect is the host the evidence points at; Phase is the live phase it
	// was last seen executing.
	Suspect int32 `json:"suspect"`
	Phase   Phase `json:"phase"`
	// Waited is how long the round has been running; Threshold what it was
	// allowed; Median the trailing-median round time it derives from (0
	// before any round completed).
	Waited    time.Duration `json:"waited_ns"`
	Threshold time.Duration `json:"threshold_ns"`
	Median    time.Duration `json:"median_ns"`
	// Escalated marks the second-stage report of a persisting stall.
	Escalated bool `json:"escalated"`
	// Heartbeats is the table the diagnosis was made from.
	Heartbeats []Heartbeat `json:"heartbeats"`
}

func (r *StallReport) String() string {
	kind := "straggler"
	if r.Escalated {
		kind = "stall"
	}
	return fmt.Sprintf("watchdog: %s: round %d overdue (%v > %v, median %v): suspect host %d in phase %q",
		kind, r.Round, r.Waited.Round(time.Millisecond), r.Threshold.Round(time.Millisecond),
		r.Median.Round(time.Millisecond), r.Suspect, r.Phase)
}

// StallError is the error the runner attaches to the PeerError path when a
// watchdog escalates: the cluster is failed deliberately, with the diagnosis
// as the cause.
type StallError struct {
	Report *StallReport
}

func (e *StallError) Error() string {
	return e.Report.String()
}

// Watchdog monitors a Health table. Create with StartWatchdog; stop with
// Stop (idempotent, waits for the monitor goroutine).
type Watchdog struct {
	cfg    WatchdogConfig
	health *Health

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// suspended counts declared checkpoint/rejoin windows (see Suspend).
	suspended atomic.Int32
}

// Suspend pauses stall detection for a declared checkpoint barrier or
// rejoin window: rounds deliberately stop advancing there, and flagging —
// let alone escalating StallError — would kill a recovering cluster.
// Suspensions nest (hosts sharing one watchdog may overlap their windows);
// detection resumes when every Suspend has been matched by a Resume.
func (w *Watchdog) Suspend() { w.suspended.Add(1) }

// Resume re-arms stall detection after Suspend. Round timing restarts from
// scratch — the time spent inside the window never counts against the
// current round — but the trailing-median history is kept, since completed
// pre-window rounds remain representative.
func (w *Watchdog) Resume() {
	if w.suspended.Add(-1) < 0 {
		panic("trace: Watchdog.Resume without matching Suspend")
	}
}

// StartWatchdog begins monitoring health.
func StartWatchdog(health *Health, cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		cfg:    cfg.withDefaults(),
		health: health,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go w.run()
	return w
}

// Stop terminates the monitor and waits for it.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// run is the monitor loop: track the cluster round (minimum across hosts),
// time its advances, flag when the current round exceeds the threshold.
func (w *Watchdog) run() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.Poll)
	defer tick.Stop()

	var (
		durations  []time.Duration // completed round times, trailing window
		curRound   = int32(-2)     // cluster round being timed; -2 = not started
		roundStart int64           // health clock ns when curRound began
		flagged    bool            // current round already reported
		flaggedAt  int64           // health clock ns of the flag
		escalated  bool
	)
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		if w.suspended.Load() > 0 {
			// Inside a declared checkpoint/rejoin window: drop the current
			// round timing (it restarts fresh on resume) and never flag.
			curRound = -2
			flagged, escalated = false, false
			continue
		}
		hbs := w.health.Snapshot()
		if len(hbs) == 0 {
			continue
		}
		minRound := hbs[0].Round
		for _, hb := range hbs[1:] {
			if hb.Round < minRound {
				minRound = hb.Round
			}
		}
		if minRound < 0 {
			continue // init/memoization; rounds have not started
		}
		now := w.health.Now()
		if minRound != curRound {
			if curRound >= 0 {
				durations = append(durations, time.Duration(now-roundStart))
				if len(durations) > w.cfg.Window {
					durations = durations[len(durations)-w.cfg.Window:]
				}
			}
			curRound, roundStart = minRound, now
			flagged, escalated = false, false
			continue
		}
		waited := time.Duration(now - roundStart)
		median := medianDuration(durations)
		threshold := time.Duration(float64(median) * w.cfg.Factor)
		if threshold < w.cfg.MinRound {
			threshold = w.cfg.MinRound
		}
		if waited <= threshold {
			continue
		}
		if !flagged {
			flagged, flaggedAt = true, now
			w.report(curRound, waited, threshold, median, hbs, false)
		} else if !escalated && w.cfg.StallTimeout > 0 && time.Duration(now-flaggedAt) > w.cfg.StallTimeout {
			escalated = true
			w.report(curRound, waited, threshold, median, hbs, true)
		}
	}
}

// report assembles and dispatches one StallReport.
func (w *Watchdog) report(round int32, waited, threshold, median time.Duration, hbs []Heartbeat, escalated bool) {
	suspect := SuspectHost(hbs)
	r := &StallReport{
		Round:      round,
		Suspect:    suspect.Host,
		Phase:      suspect.Phase,
		Waited:     waited,
		Threshold:  threshold,
		Median:     median,
		Escalated:  escalated,
		Heartbeats: append([]Heartbeat(nil), hbs...),
	}
	if w.cfg.Log != nil {
		fmt.Fprintln(w.cfg.Log, r)
	}
	if w.cfg.OnReport != nil {
		w.cfg.OnReport(r)
	}
}

// SuspectHost picks the host most likely responsible for a stalled round: a
// host blocked in recvwait or barrier is waiting on somebody else (a
// victim), so the suspect is the host still executing — lowest round first,
// then non-waiting phase, then the oldest liveness beat. When every host is
// waiting (a true deadlock or a silently dead process) the oldest beat
// decides: the host that stopped touching its heartbeat first.
func SuspectHost(hbs []Heartbeat) Heartbeat {
	if len(hbs) == 0 {
		return Heartbeat{Host: -1, Phase: NumPhases}
	}
	waiting := func(p Phase) bool { return p == PhaseRecvWait || p == PhaseBarrier }
	best := hbs[0]
	for _, hb := range hbs[1:] {
		switch {
		case hb.Round != best.Round:
			if hb.Round < best.Round {
				best = hb
			}
		case waiting(best.Phase) != waiting(hb.Phase):
			if waiting(best.Phase) {
				best = hb
			}
		case hb.BeatNs < best.BeatNs:
			best = hb
		}
	}
	return best
}

// medianDuration returns the median of a small sample (0 when empty).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
