package trace

// Live view plane. The sideband already streams every host's spans to one
// collector; this file lets viewers read the collector's fold while the run
// is still going. A viewer (gluon-trace top, or AttachWatcher
// programmatically) dials the collector's sideband port and polls: each
// sbWatch frame it sends is answered by exactly one sbUpdate frame on the
// same connection — a self-contained ViewUpdate of the cluster: the fold's
// totals, per-host heartbeats, shipper session states, and the
// critical-path verdict the collector computes incrementally as batches
// arrive. Self-contained replies make the attach semantics trivial: the
// first reply IS the consistent snapshot (it carries every round attributed
// so far), and each later reply supersedes the previous one, so a viewer can
// never observe a torn state.
//
// The collector builds a reply only when asked, and writes it without
// holding its lock, so a viewer that stops reading stalls only its own
// connection's goroutine — never the shippers, the fold, or other viewers.

import (
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// snapshotRounds caps the rounds a viewer's first reply replays; later
// replies carry tailRounds.
const (
	snapshotRounds = 512
	tailRounds     = 32
)

// ViewUpdate is one reply to a live viewer's poll: the whole dashboard state.
type ViewUpdate struct {
	// Seq increases by one per reply the collector builds, across all
	// viewers, so it never goes backwards on one connection; gaps are other
	// viewers' replies.
	Seq int64 `json:"seq"`
	// Snapshot marks a connection's first reply, which replays the
	// attributed round history (up to snapshotRounds) instead of just the
	// tail.
	Snapshot bool `json:"snapshot,omitempty"`
	// NowNs is the collector clock at build time — subtract a heartbeat's
	// BeatNs from it for staleness.
	NowNs int64  `json:"now_ns"`
	Label string `json:"label,omitempty"`
	// Sessions are the shipper lifecycle records; a session in state
	// "error" is a disconnected host, not a frozen one.
	Sessions []SessionInfo `json:"sessions,omitempty"`
	// Hearts is the latest heartbeat per host, on the collector clock.
	Hearts []Heartbeat `json:"heartbeats,omitempty"`
	// Events, MaxRound and the byte totals (the encode spans' tags) are the
	// collector's fold's own totals; Dropped counts the events missing from
	// that fold, those a ring overwrote before a shipper read them.
	Events     uint64 `json:"events"`
	Dropped    uint64 `json:"dropped"`
	MaxRound   int32  `json:"max_round"`
	ValueBytes uint64 `json:"value_bytes"`
	MetaBytes  uint64 `json:"metadata_bytes"`
	GIDBytes   uint64 `json:"gid_bytes"`
	// Hosts / Rounds / Verdict / Ledger are the same fold's attribution
	// (rollup.go), fed incrementally as batches arrive.
	Hosts   []HostPhaseSum `json:"hosts,omitempty"`
	Rounds  []RoundPath    `json:"rounds,omitempty"`
	Verdict Verdict        `json:"verdict"`
	Ledger  Ledger         `json:"ledger"`
}

// watch registers conn as a viewer, so Close can end its connection.
// Returns false if the collector is shutting down.
func (c *Collector) watch(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.stop:
		// Registration and the stop check share the critical section so a
		// closing collector either closes this viewer's conn or refuses it
		// here — never a registered-but-unswept leak.
		return false
	default:
	}
	c.viewers[conn] = struct{}{}
	return true
}

// reply answers one sbWatch with the current dashboard state. It writes
// without holding c.mu, so a viewer that stops reading blocks only the
// goroutine serving its own connection.
func (c *Collector) reply(conn net.Conn, snapshot bool) error {
	b, err := json.Marshal(c.buildUpdate(snapshot))
	if err != nil {
		return err
	}
	return writeFrame(conn, sbUpdate, b)
}

// buildUpdate assembles the current dashboard state.
func (c *Collector) buildUpdate(snapshot bool) *ViewUpdate {
	tail := tailRounds
	if snapshot {
		tail = snapshotRounds
	}
	c.mu.Lock()
	c.seq++
	u := c.rollup.view(tail)
	u.Seq, u.Snapshot, u.Label = c.seq, snapshot, c.label
	u.Sessions = c.sessionInfosLocked()
	u.Dropped = c.missed
	c.mu.Unlock()
	u.NowNs = c.health.Now()
	u.Hearts = c.health.Snapshot()
	return u
}

// view renders the fold's part of a ViewUpdate: its totals and the
// attribution of the newest tail closed rounds.
func (r *Rollup) view(tail int) *ViewUpdate {
	cp, t := r.CriticalPath("", tail), &r.totals
	return &ViewUpdate{
		Events: t.events, MaxRound: t.maxRound,
		ValueBytes: t.value, MetaBytes: t.meta, GIDBytes: t.gid,
		Hosts: cp.Hosts, Rounds: cp.Rounds, Verdict: cp.Verdict, Ledger: cp.Ledger,
	}
}

// Watcher polls a collector for its live dashboard state, as gluon-trace top
// does.
type Watcher struct {
	conn net.Conn
}

// AttachWatcher dials a collector's sideband address. Nothing is exchanged
// until the first Poll.
func AttachWatcher(addr string) (*Watcher, error) {
	conn, err := dialCollector(addr)
	if err != nil {
		return nil, err
	}
	return &Watcher{conn: conn}, nil
}

// Poll asks the collector for its current state and waits at most
// sbDialTimeout for the reply. The first reply is the consistent snapshot;
// every later one supersedes it. After an error the Watcher is unusable.
func (w *Watcher) Poll() (ViewUpdate, error) {
	fail := func(err error) (ViewUpdate, error) {
		return ViewUpdate{}, fmt.Errorf("trace: polling collector %s: %w", w.conn.RemoteAddr(), err)
	}
	if err := w.conn.SetDeadline(time.Now().Add(sbDialTimeout)); err != nil {
		return fail(err)
	}
	if err := writeFrame(w.conn, sbWatch, nil); err != nil {
		return fail(err)
	}
	typ, body, err := readFrame(w.conn)
	if err != nil {
		return fail(err)
	}
	if typ != sbUpdate {
		return fail(fmt.Errorf("unexpected frame type %d", typ))
	}
	var u ViewUpdate
	if err := json.Unmarshal(body, &u); err != nil {
		return fail(fmt.Errorf("bad update frame: %w", err))
	}
	return u, nil
}

// Close detaches from the collector.
func (w *Watcher) Close() error { return w.conn.Close() }
