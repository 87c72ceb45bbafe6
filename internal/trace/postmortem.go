package trace

// Black-box flight recorder and postmortem bundles (DESIGN.md §4.7).
//
// The trace ring is already a flight recorder in the aviation sense: a
// bounded window of the most recent events, cheap enough to leave on.
// What was missing is the crash half of the discipline — when a run dies
// (a peer poisons, a watchdog escalates, a goroutine panics, a restore
// fails, a sync invariant breaks), the window is lost with the process.
// The FlightRecorder closes that gap: trigger sites call Dump, which
// freezes everything a postmortem needs into one JSON bundle written
// with ckpt's tmp+fsync+rename discipline, so surviving hosts of a
// crashed cluster each leave an artifact `gluon-trace doctor` can align and
// explain.
//
// Arming is process-global (Arm/Armed): failure paths live deep in comm
// and dsys where threading a recorder handle through every call would
// contaminate APIs that otherwise never care about observability. The
// cost when disarmed is one atomic pointer load on failure paths only —
// the sync hot path never consults it.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gluon/internal/ckpt"
)

// Trigger classifies what killed (or wounded) a run. The taxonomy matches
// the failure paths wired through comm, dsys, and gluon; doctor groups and
// orders bundles by it.
type Trigger string

const (
	// TriggerPeerPoison: a transport poisoned a peer's mailbox organically
	// (connection lost, malformed frame, send failure) — the local view of a
	// remote death.
	TriggerPeerPoison Trigger = "peer-poison"
	// TriggerDeadHost: a host was declared dead cluster-wide through
	// PeerFailer.FailPeer — the propagated view.
	TriggerDeadHost Trigger = "dead-host"
	// TriggerInjectedFault: a FaultTransport injection fired (kill-after-N,
	// truncation).
	TriggerInjectedFault Trigger = "injected-fault"
	// TriggerStall: the watchdog escalated a persisting stall.
	TriggerStall Trigger = "stall"
	// TriggerPanic: the BSP round loop recovered a panic.
	TriggerPanic Trigger = "panic"
	// TriggerRestoreFailed: a checkpoint restore or rejoin rendezvous failed.
	TriggerRestoreFailed Trigger = "restore-failed"
	// TriggerSyncInvariant: gluon detected a broken sync invariant (undecodable
	// message, unknown mode, mirror/memo mismatch).
	TriggerSyncInvariant Trigger = "sync-invariant"
	// TriggerManual: an operator- or test-requested dump.
	TriggerManual Trigger = "manual"
)

// BundleVersion is the postmortem bundle format version; bumped when the
// JSON shape changes incompatibly. Dropping a key is compatible: the
// "live" rollup bundles once carried still loads, ignored.
const BundleVersion = 1

// Bundle is one host's frozen postmortem: everything Dump could gather at
// trigger time, serialized to JSON and installed atomically.
type Bundle struct {
	Version int     `json:"version"`
	Trigger Trigger `json:"trigger"`
	// Cause is the rendered error or reason behind the trigger.
	Cause string `json:"cause,omitempty"`
	// Detail carries trigger-specific extra context (stall report text,
	// panic value, invariant description).
	Detail string `json:"detail,omitempty"`
	// Host is the rank that dumped; Peer the other rank of the failure
	// (-1 when not applicable).
	Host int32 `json:"host"`
	Peer int32 `json:"peer"`
	// Round and Phase locate the failure on the BSP timeline.
	Round int32  `json:"round"`
	Phase string `json:"phase,omitempty"`

	// Label and RunConfig describe what was running.
	Label     string `json:"label,omitempty"`
	RunConfig string `json:"run_config,omitempty"`

	// TraceID identifies the tracing session (process) this bundle froze, so
	// doctor can dedup ring events shared by several bundles of one process.
	TraceID string `json:"trace_id"`
	// WallUnixNano is the wall clock at dump time; SessionNs the session
	// clock at dump time. Together they place the session's time axis on the
	// wall clock (epochWall = WallUnixNano - SessionNs), which is doctor's
	// fallback alignment when no measured Clock is present.
	WallUnixNano int64 `json:"wall_unix_nano"`
	SessionNs    int64 `json:"session_ns"`
	// Clock, when Samples > 0, is the sideband-measured offset of this
	// session's clock relative to the collector — tighter than wall-clock
	// alignment by orders of magnitude.
	Clock ClockInfo `json:"clock,omitempty"`

	// Events is the trace-ring tail (across all hosts of this process's
	// session), Start-ordered; Dropped counts ring overwrites before the
	// window.
	Events  []Event `json:"events,omitempty"`
	Dropped uint64  `json:"dropped"`

	// Stacks is the full goroutine dump at trigger time.
	Stacks string `json:"stacks,omitempty"`
	// Heartbeats is the watchdog Health table (cluster view) when one is
	// wired, else the local session's liveness snapshot.
	Heartbeats []Heartbeat `json:"heartbeats,omitempty"`
	// PoolGets/PoolPuts are the bufpool accounting counters (equal in a
	// leak-free run; only meaningful when accounting was enabled).
	PoolGets int64 `json:"pool_gets"`
	PoolPuts int64 `json:"pool_puts"`
	// LastCkptEpoch is the newest checkpoint epoch this process completed
	// (-1: none / checkpointing off) — with Round it bounds recomputation.
	LastCkptEpoch int64 `json:"last_ckpt_epoch"`
	// RecentLogs is the tail of structured log lines the logger teed
	// into the recorder, oldest first.
	RecentLogs []string `json:"recent_logs,omitempty"`
}

// DumpInfo is what a trigger site knows at the moment of failure.
type DumpInfo struct {
	Trigger Trigger
	// Host is the failing rank's local view (-1 lets the recorder fall back
	// to its configured default host).
	Host int
	// Peer is the other rank involved (-1 when not applicable).
	Peer int
	// Round and Phase locate the failure; Round -2 lets the recorder read
	// them from the host's live recorder instead.
	Round int
	Phase Phase
	// Cause is the error behind the trigger (rendered into the bundle).
	Cause error
	// Detail carries extra context (stall report text, panic value).
	Detail string
}

// FlightConfig parameterizes a FlightRecorder.
type FlightConfig struct {
	// Dir is where bundles are written (required).
	Dir string
	// MaxDumps caps the bundles one recorder writes — failure cascades
	// (every surviving peer poisoning at once) must not flood the disk
	// (0 = 16).
	MaxDumps int
	// Trace is the session to freeze. Nil creates a private enabled session
	// of flightCapacity events (flight-recorder mode: a modest always-on
	// ring even when full tracing is off).
	Trace *Trace
	// Host is the default rank stamped on bundles whose DumpInfo carries
	// none (multi-host in-process sessions pass per-dump hosts instead).
	Host int
}

// FlightRecorder freezes postmortem bundles on demand. All methods are safe
// on a nil receiver and safe for concurrent use.
type FlightRecorder struct {
	cfg   FlightConfig
	trace *Trace
	id    string

	lastCkpt atomic.Int64

	mu         sync.Mutex
	runConfig  string
	health     *Health
	pool       func() (gets, puts int64)
	clock      ClockInfo
	logs       []string // bounded recent-log ring (slog tee)
	logNext    int      // overwrite cursor once the log ring is full
	seen       map[string]bool
	written    int
	suppressed int
}

// recentLogCap bounds the slog tee ring a bundle carries; tailEvents the
// ring tail; flightCapacity sizes the private session of a recorder given no
// Trace (≈ 1.4 MB — cheap enough to leave armed).
const (
	recentLogCap   = 64
	tailEvents     = 4096
	flightCapacity = 1 << 14
)

// NewFlightRecorder arms a recorder writing bundles under cfg.Dir.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.MaxDumps <= 0 {
		cfg.MaxDumps = 16
	}
	tr := cfg.Trace
	if tr == nil {
		tr = New(Config{Capacity: flightCapacity, Label: "flight-recorder"})
	}
	fr := &FlightRecorder{
		cfg:   cfg,
		trace: tr,
		logs:  make([]string, 0, recentLogCap),
	}
	fr.id = fmt.Sprintf("%d-h%d-%x", os.Getpid(), cfg.Host, uint64(time.Now().UnixNano()))
	fr.lastCkpt.Store(-1)
	return fr
}

// Trace returns the session the recorder freezes — callers running without
// explicit tracing pass this as their RunConfig.Trace so the ring fills.
func (fr *FlightRecorder) Trace() *Trace {
	if fr == nil {
		return nil
	}
	return fr.trace
}

// SetRunConfig records a human-readable description of the run for bundles.
func (fr *FlightRecorder) SetRunConfig(desc string) {
	if fr != nil {
		fr.mu.Lock()
		fr.runConfig = desc
		fr.mu.Unlock()
	}
}

// SetHealth wires the watchdog's cluster-wide heartbeat table; bundles then
// carry the cluster view instead of only the local one.
func (fr *FlightRecorder) SetHealth(h *Health) {
	if fr != nil {
		fr.mu.Lock()
		fr.health = h
		fr.mu.Unlock()
	}
}

// SetPoolCounters wires the bufpool accounting read (comm.PoolCounters —
// injected to keep trace free of a comm dependency).
func (fr *FlightRecorder) SetPoolCounters(fn func() (gets, puts int64)) {
	if fr != nil {
		fr.mu.Lock()
		fr.pool = fn
		fr.mu.Unlock()
	}
}

// SetClock records the sideband-measured clock relation for bundles.
func (fr *FlightRecorder) SetClock(ci ClockInfo) {
	if fr != nil {
		fr.mu.Lock()
		fr.clock = ci
		fr.mu.Unlock()
	}
}

// SetLastCheckpoint records the newest completed checkpoint epoch.
func (fr *FlightRecorder) SetLastCheckpoint(epoch uint64) {
	if fr != nil {
		fr.lastCkpt.Store(int64(epoch))
	}
}

// appendLog tees one rendered slog line into the bounded recent-log ring.
func (fr *FlightRecorder) appendLog(line string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	if len(fr.logs) < cap(fr.logs) {
		fr.logs = append(fr.logs, line)
	} else if len(fr.logs) > 0 {
		fr.logs[fr.logNext%len(fr.logs)] = line
		fr.logNext++
	}
	fr.mu.Unlock()
}

// recentLogs returns the teed log tail, oldest first.
func (fr *FlightRecorder) recentLogs() []string {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.logNext == 0 {
		return append([]string(nil), fr.logs...)
	}
	n := fr.logNext % len(fr.logs)
	out := make([]string, 0, len(fr.logs))
	out = append(out, fr.logs[n:]...)
	out = append(out, fr.logs[:n]...)
	return out
}

// Dump freezes a bundle for info and writes it atomically, returning the
// bundle path. Repeated dumps for the same (trigger, peer) pair and dumps
// past MaxDumps are suppressed (a poison cascade on an 8-host cluster must
// leave a handful of bundles, not hundreds); suppressed dumps return ""
// with a nil error. Dump never panics; it is called from paths that are
// already failing.
func (fr *FlightRecorder) Dump(info DumpInfo) (string, error) {
	if fr == nil {
		return "", nil
	}
	host := int32(info.Host)
	if info.Host < 0 {
		host = int32(fr.cfg.Host)
	}
	key := fmt.Sprintf("%s/%d/%d", info.Trigger, host, info.Peer)
	fr.mu.Lock()
	if fr.seen == nil {
		fr.seen = make(map[string]bool)
	}
	if fr.seen[key] || fr.written >= fr.cfg.MaxDumps {
		fr.suppressed++
		fr.mu.Unlock()
		return "", nil
	}
	fr.seen[key] = true
	fr.written++
	seq := fr.written
	runConfig, health, pool, clock := fr.runConfig, fr.health, fr.pool, fr.clock
	fr.mu.Unlock()

	round := int32(info.Round)
	phase := info.Phase
	if info.Round == RoundFromRecorder {
		rec := fr.trace.Recorder(int(host))
		round = rec.Round()
		phase = rec.LivePhase()
	}
	b := &Bundle{
		Version:       BundleVersion,
		Trigger:       info.Trigger,
		Host:          host,
		Peer:          int32(info.Peer),
		Round:         round,
		Label:         fr.trace.Label(),
		RunConfig:     runConfig,
		TraceID:       fr.id,
		WallUnixNano:  time.Now().UnixNano(),
		SessionNs:     fr.trace.Now(),
		Clock:         clock,
		LastCkptEpoch: fr.lastCkpt.Load(),
		RecentLogs:    fr.recentLogs(),
		Detail:        info.Detail,
	}
	if phase < NumPhases {
		b.Phase = phase.String()
	}
	if info.Cause != nil {
		b.Cause = info.Cause.Error()
	}
	events, dropped := fr.trace.Snapshot()
	if len(events) > tailEvents {
		dropped += uint64(len(events) - tailEvents)
		events = events[len(events)-tailEvents:]
	}
	b.Events, b.Dropped = events, dropped
	buf := make([]byte, 1<<20)
	b.Stacks = string(buf[:runtime.Stack(buf, true)])
	if health != nil {
		b.Heartbeats = health.Snapshot()
	} else {
		b.Heartbeats = fr.trace.Heartbeats()
	}
	if pool != nil {
		b.PoolGets, b.PoolPuts = pool()
	}

	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return "", fmt.Errorf("trace: encode postmortem bundle: %w", err)
	}
	path := filepath.Join(fr.cfg.Dir, bundleFileName(int(host), info.Trigger, seq))
	if err := ckpt.AtomicWriteFile(path, data); err != nil {
		return "", fmt.Errorf("trace: write postmortem bundle: %w", err)
	}
	return path, nil
}

// RoundFromRecorder, passed as DumpInfo.Round, asks Dump to read round and
// phase from the host's live recorder instead of the caller.
const RoundFromRecorder = -2

// bundleFileName is the canonical bundle name; doctor globs the prefix.
func bundleFileName(host int, tr Trigger, seq int) string {
	return fmt.Sprintf("postmortem-h%03d-%s-%02d.json", host, tr, seq)
}

// isBundleFileName reports whether name is a bundle file.
func isBundleFileName(name string) bool {
	return strings.HasPrefix(name, "postmortem-") && strings.HasSuffix(name, ".json")
}

// armed is the process-global flight recorder; see Arm.
var armed atomic.Pointer[FlightRecorder]

// Arm installs fr as the process's flight recorder — the instance failure
// paths in comm, dsys, and gluon dump through. Passing nil disarms.
func Arm(fr *FlightRecorder) { armed.Store(fr) }

// Armed returns the process's flight recorder, or nil when disarmed. The
// disarmed cost at a trigger site is this one atomic load.
func Armed() *FlightRecorder { return armed.Load() }

// Crash dumps a bundle through the armed recorder, if any. It is the one
// call trigger sites make; disarmed processes pay an atomic load and
// return. The bundle path is returned for logging ("" when disarmed or
// suppressed).
func Crash(info DumpInfo) string {
	fr := armed.Load()
	if fr == nil {
		return ""
	}
	path, err := fr.Dump(info)
	if err != nil {
		// A failing dump must not mask the original failure; leave a line on
		// stderr and move on.
		crashLogger.Error("postmortem dump failed", "err", err, "trigger", string(info.Trigger))
		return ""
	}
	return path
}

// crashLogger reports dump failures; its tee keeps even these lines in the
// recent-log ring.
var crashLogger = NewLogger("gluon")
