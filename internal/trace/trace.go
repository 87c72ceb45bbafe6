// Package trace is the substrate's observability layer: a low-overhead,
// ring-buffered span recorder that gluon (sync phases), dsys (BSP round
// boundaries), and comm (frame-level transport traffic, fault injection)
// instrument, so a run can be replayed as a timeline instead of a flat
// end-of-run Stats rollup.
//
// Design constraints, in order:
//
//   - Near-zero cost when disabled. Instrumentation sites guard on
//     (*Recorder).Enabled() — a nil check plus one atomic load — and emit
//     nothing else. A nil *Recorder (the default everywhere) is a valid,
//     always-disabled recorder, so the hot path needs no wiring to opt out.
//   - No allocations on the hot path when enabled. Emit copies the Event
//     value into a preallocated ring slot under a per-host mutex; Detail
//     strings at hot sites are constants.
//   - Race-free merging. Each host owns one Recorder; goroutines of that
//     host share its mutex, and Trace.Snapshot merges the per-host rings
//     into one Start-ordered slice without stopping the run.
//   - Monotonic timestamps. Event times are nanoseconds since the Trace's
//     epoch, measured with the runtime's monotonic clock, so spans from
//     different hosts of one Trace are directly comparable.
//
// Bounded memory comes from the ring: when a host emits more than its ring
// capacity, the oldest events are overwritten and counted as dropped —
// tracing degrades to a suffix window rather than growing without bound.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase tags what an event measures. Span phases (PhaseSync through
// PhaseBarrier) carry a duration; the frame and fault phases are instants.
type Phase uint8

// Event taxonomy. The gluon sync pipeline emits PhaseSync (one whole Sync*
// call) containing PhaseEncode/PhaseSend per peer message on the sender
// side and PhaseRecvWait/PhaseFold (reduce) or PhaseApply (broadcast) per
// message on the receiver side. dsys emits PhaseCompute per BSP round and
// PhaseBarrier around termination detection (straggler wait). Transports
// emit PhaseFrameSend/PhaseFrameRecv instants per frame — including
// collectives that gluon spans don't cover — and PhaseFault instants for
// poisonings, dead-host declarations, and injected faults.
const (
	PhaseSync Phase = iota
	PhaseEncode
	PhaseSend
	PhaseRecvWait
	PhaseFold
	PhaseApply
	PhaseCompute
	PhaseBarrier
	PhaseFrameSend
	PhaseFrameRecv
	PhaseFault
	// PhaseCkpt spans cover checkpoint capture and the asynchronous write
	// (DESIGN.md §4.6). Appended after the instants so existing numeric
	// phase values stay stable across trace versions.
	PhaseCkpt
	NumPhases
)

var phaseNames = [NumPhases]string{
	"sync", "encode", "send", "recvwait", "fold", "apply",
	"compute", "barrier", "framesend", "framerecv", "fault", "ckpt",
}

// String returns the phase's wire name (used in exports and analyzer tables).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// ParsePhase inverts String.
func ParsePhase(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return NumPhases, false
}

// Instant reports whether the phase is an instantaneous marker rather than
// a span (frame-level and fault events). PhaseCkpt sits after the instants
// numerically but is a span (capture/write durations matter), so the set
// is enumerated explicitly.
func (p Phase) Instant() bool {
	return p == PhaseFrameSend || p == PhaseFrameRecv || p == PhaseFault
}

// Event is one trace record. Span events have Dur > 0 (or a span Phase with
// measured zero duration); instants have Dur == 0 by construction.
//
// Byte tags: on PhaseEncode events, Value/Meta/GID are the exact payload
// byte deltas this message added to gluon.Stats, so summing them over a
// trace reproduces the run's final Stats split. On
// PhaseRecvWait and frame events, Value holds the received/sent wire length.
type Event struct {
	// Start is nanoseconds since the owning Trace's epoch (monotonic).
	Start int64 `json:"ts"`
	// Dur is the span length in nanoseconds; 0 for instants.
	Dur int64 `json:"dur,omitempty"`
	// Value, Meta, GID are payload byte counts (see type comment).
	Value uint64 `json:"value,omitempty"`
	Meta  uint64 `json:"meta,omitempty"`
	GID   uint64 `json:"gid,omitempty"`
	// Field is the synchronized field ID (gluon events) or the message tag
	// (frame events).
	Field uint32 `json:"field,omitempty"`
	// Host is the emitting host's rank; stamped by the Recorder.
	Host int32 `json:"host"`
	// Round is the BSP round the event belongs to; -1 during init/memoize,
	// stamped by the Recorder from SetRound.
	Round int32 `json:"round"`
	// Peer is the other host of a message or fault (-1 when not applicable).
	Peer int32 `json:"peer"`
	// Lane separates concurrent timelines within a host (0 = the driver,
	// 1+w = encode worker w); it becomes the Chrome-trace thread ID.
	Lane int32 `json:"lane,omitempty"`
	// Phase tags what was measured.
	Phase Phase `json:"phase"`
	// Mode is the wire encoding mode of a PhaseEncode event (0 empty,
	// 1 dense, 2 bitvec, 3 indices, 4 gid-pairs); meaningless elsewhere.
	Mode int8 `json:"mode,omitempty"`
	// Detail is a free-form annotation (field name, fault cause).
	Detail string `json:"detail,omitempty"`
}

// ModeName names a wire encoding mode for tables and exports.
func ModeName(m int8) string {
	switch m {
	case 0:
		return "empty"
	case 1:
		return "dense"
	case 2:
		return "bitvec"
	case 3:
		return "indices"
	case 4:
		return "gids"
	default:
		return "unknown"
	}
}

// NumModes is the number of wire encoding modes (matches gluon's ModeCounts).
const NumModes = 5

// DefaultCapacity is the per-host ring capacity when Config.Capacity is 0:
// 128Ki events ≈ 11 MB per host, enough for ~1000 rounds of an 8-host sync
// before the ring wraps.
const DefaultCapacity = 1 << 17

// Config parameterizes a Trace session.
type Config struct {
	// Capacity is the per-host ring capacity in events (0 = DefaultCapacity).
	Capacity int
	// Label annotates exports (e.g. the benchmark spec being traced).
	Label string
}

// Trace is one tracing session shared by all hosts of a run (or several
// runs back to back). It hands out per-host Recorders and merges their
// recorded events for export and shipping. A nil *Trace is valid and
// permanently disabled.
type Trace struct {
	cfg     Config
	epoch   time.Time
	enabled atomic.Bool

	mu   sync.Mutex
	recs []*Recorder // indexed by host, grown lazily
}

// New creates an enabled tracing session whose clock starts now.
func New(cfg Config) *Trace {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	t := &Trace{cfg: cfg, epoch: time.Now()}
	t.enabled.Store(true)
	return t
}

// Label returns the session's label.
func (t *Trace) Label() string {
	if t == nil {
		return ""
	}
	return t.cfg.Label
}

// SetEnabled gates all recorders of the session at once. Events emitted
// while disabled are discarded before touching any ring.
func (t *Trace) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Recorder returns host's recorder, creating it on first use. It is safe to
// call concurrently from every host's driver. On a nil Trace it returns
// nil — a valid, permanently disabled recorder.
func (t *Trace) Recorder(host int) *Recorder {
	if t == nil || host < 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.recs) <= host {
		t.recs = append(t.recs, nil)
	}
	if t.recs[host] == nil {
		t.recs[host] = &Recorder{t: t, host: int32(host), buf: make([]Event, 0, t.cfg.Capacity)}
		t.recs[host].round.Store(-1)
		t.recs[host].phase.Store(int32(NumPhases))
	}
	return t.recs[host]
}

// recorders returns the recorders handed out so far. Safe on a nil Trace.
func (t *Trace) recorders() []*Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Recorder, 0, len(t.recs))
	for _, r := range t.recs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Snapshot merges all hosts' rings into one slice ordered by Start, plus
// the total number of events dropped to ring overwrites. It does not stop
// recording; events emitted during the merge may or may not be included.
func (t *Trace) Snapshot() ([]Event, uint64) {
	var out []Event
	var dropped uint64
	for _, r := range t.recorders() {
		ev, _, missed := r.snapshotSince(0)
		out = append(out, ev...)
		dropped += missed
	}
	sortEventsByStart(out)
	return out, dropped
}

// Dropped returns the total events lost to ring overwrites so far.
func (t *Trace) Dropped() uint64 {
	var dropped uint64
	for _, r := range t.recorders() {
		r.mu.Lock()
		dropped += r.seq - uint64(len(r.buf))
		r.mu.Unlock()
	}
	return dropped
}

// Recorder is one host's event sink: a mutex-guarded ring the host's driver
// and its sync worker goroutines share. The nil *Recorder is valid and
// permanently disabled, so instrumented code never needs a wiring check
// beyond Enabled().
//
// Beyond the ring, a Recorder keeps a few liveness atomics — the current BSP
// round, the phase the host is executing right now, cumulative encode bytes,
// and the time of the last touch — which together form the compact heartbeat
// the cluster watchdog and the sideband shipper read without locking the ring.
type Recorder struct {
	t     *Trace
	host  int32
	round atomic.Int32
	phase atomic.Int32  // live phase (-1 = idle/unknown), see SetLivePhase
	bytes atomic.Uint64 // cumulative encode payload bytes (heartbeat counter)
	beat  atomic.Int64  // session-clock ns of the last liveness touch

	// The ring: seq counts every event ever emitted, so seq - len(buf) of
	// them have been overwritten.
	mu   sync.Mutex
	buf  []Event // ring storage; len grows to cap, then next wraps
	next int     // overwrite cursor once len(buf) == cap(buf)
	seq  uint64  // total events ever emitted (ring-independent cursor)
}

// Host returns the rank this recorder stamps onto events.
func (r *Recorder) Host() int32 {
	if r == nil {
		return -1
	}
	return r.host
}

// Enabled reports whether emitting is worthwhile. Instrumentation sites
// hoist this guard so the disabled cost is one nil check + one atomic load.
func (r *Recorder) Enabled() bool { return r != nil && r.t.enabled.Load() }

// Now returns nanoseconds since the session epoch on the monotonic clock.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t.epoch))
}

// SetRound stamps the BSP round onto subsequently emitted events (-1 means
// init/memoization time). Safe concurrently with Emit.
func (r *Recorder) SetRound(round int32) {
	if r != nil {
		r.round.Store(round)
		r.beat.Store(int64(time.Since(r.t.epoch)))
	}
}

// Round returns the currently stamped BSP round.
func (r *Recorder) Round() int32 {
	if r == nil {
		return -1
	}
	return r.round.Load()
}

// SetLivePhase publishes the phase the host is executing right now — the
// heartbeat the straggler watchdog reads. It is a nil check plus two atomic
// stores, alloc-free, so phase-boundary sites can call it unguarded.
func (r *Recorder) SetLivePhase(p Phase) {
	if r != nil {
		r.phase.Store(int32(p))
		r.beat.Store(int64(time.Since(r.t.epoch)))
	}
}

// LivePhase returns the last published live phase (NumPhases when the host
// has not published one yet).
func (r *Recorder) LivePhase() Phase {
	if r == nil {
		return NumPhases
	}
	return Phase(r.phase.Load())
}

// LiveBytes returns the cumulative encode payload bytes this host has
// emitted — the heartbeat's progress counter.
func (r *Recorder) LiveBytes() uint64 {
	if r == nil {
		return 0
	}
	return r.bytes.Load()
}

// LastBeat returns the session-clock time of the host's last liveness touch
// (SetRound, SetLivePhase, or Emit).
func (r *Recorder) LastBeat() int64 {
	if r == nil {
		return 0
	}
	return r.beat.Load()
}

// Emit records one event, stamping Host and Round. When the session is
// disabled it is a no-op; when the ring is full the oldest event is
// overwritten and counted as dropped. Emit does not allocate.
func (r *Recorder) Emit(e Event) {
	if r == nil || !r.t.enabled.Load() {
		return
	}
	e.Host = r.host
	e.Round = r.round.Load()
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
		}
	}
	r.seq++
	r.mu.Unlock()
	r.beat.Store(e.Start + e.Dur)
	if e.Phase == PhaseEncode {
		r.bytes.Add(e.Bytes())
	}
}

// snapshotSince copies the events emitted after sequence number since (the
// value a previous call returned), in emission order. When the ring has
// wrapped past the cursor, the overwritten prefix is unrecoverable and is
// reported in missed. It is the ring's one reader: the sideband's periodic
// flushes drain it incrementally, Snapshot whole (since 0, so missed is
// every overwrite).
func (r *Recorder) snapshotSince(since uint64) (out []Event, newSeq, missed uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if since > r.seq {
		since = r.seq // cursor from another session; resynchronize
	}
	oldest := r.seq - uint64(len(r.buf))
	if since < oldest {
		missed = oldest - since
		since = oldest
	}
	n := int(r.seq - since)
	if n == 0 {
		return nil, r.seq, missed
	}
	out = make([]Event, 0, n)
	// Ring layout: emission order is buf[next:] ++ buf[:next] (next stays 0
	// until the ring wraps). The newest n events are the tail of that order.
	if start := r.next - n; start < 0 {
		out = append(out, r.buf[len(r.buf)+start:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[start:r.next]...)
	}
	return out, r.seq, missed
}

// Cursor tracks how far a sideband shipper has drained each host's ring.
// The zero value starts from the beginning of the session.
type Cursor struct {
	seq map[int32]uint64
}

// HostBatch is one host's increment between two SnapshotNew calls.
type HostBatch struct {
	Host   int32   `json:"host"`
	Missed uint64  `json:"missed,omitempty"` // events lost to ring wrap since the last drain
	Events []Event `json:"events"`
}

// SnapshotNew drains the events emitted since the cursor's last position,
// one batch per host, and advances the cursor. Hosts with no new events are
// omitted. Safe concurrently with Emit; events emitted during the call land
// in this batch or the next.
func (t *Trace) SnapshotNew(c *Cursor) []HostBatch {
	if c.seq == nil {
		c.seq = make(map[int32]uint64)
	}
	var out []HostBatch
	for _, r := range t.recorders() {
		ev, seq, missed := r.snapshotSince(c.seq[r.host])
		c.seq[r.host] = seq
		if len(ev) > 0 || missed > 0 {
			out = append(out, HostBatch{Host: r.host, Events: ev, Missed: missed})
		}
	}
	return out
}

// Now returns nanoseconds since the session epoch on the monotonic clock —
// the time base every recorder of this session stamps events with.
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Heartbeats snapshots every host's liveness atomics — the local view a
// shipper sends and a postmortem bundle keeps.
func (t *Trace) Heartbeats() []Heartbeat {
	var out []Heartbeat
	for _, r := range t.recorders() {
		out = append(out, HeartbeatOf(r))
	}
	return out
}
