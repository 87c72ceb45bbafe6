package trace

// Live subscription plane. The sideband already streams every host's spans
// to one collector; this file lets viewers tap that stream while the run is
// still going. A viewer (gluon-trace top, or AttachWatcher programmatically) dials
// the collector's sideband port, sends one sbWatch frame, and receives a
// stream of sbUpdate frames — each a self-contained ViewUpdate snapshot of
// the cluster: merged rollup counters, per-host heartbeats, shipper session
// states, and the critical-path verdict the collector computes incrementally
// as batches arrive. Self-contained updates make the attach semantics
// trivial: the first frame IS the consistent snapshot (it carries every
// round attributed so far), and each later frame supersedes the previous
// one, so a viewer can never observe a torn state.
//
// Fan-out is bounded: each viewer gets a small queue of marshaled updates,
// and a viewer that falls behind (stalled terminal, dead TCP peer) is
// dropped — its connection closed — rather than ever back-pressuring the
// collector or the shippers. The updates are pushed on a fixed cadence
// (sbUpdateInterval) plus an immediate kick whenever a stats frame or a
// session state change lands, so the dashboard tracks round progress at
// shipper-flush latency, not polling latency.

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// sbUpdateInterval is the fan-out cadence between kicks.
const sbUpdateInterval = 250 * time.Millisecond

// defaultViewerQueue bounds each viewer's marshaled-update queue; a viewer
// this far behind is dropped.
const defaultViewerQueue = 8

// snapshotRounds caps the rounds a fresh viewer's first update replays;
// steady-state updates carry tailRounds.
const (
	snapshotRounds = 512
	tailRounds     = 32
)

// ViewUpdate is one push to a live viewer: the whole dashboard state.
type ViewUpdate struct {
	// Seq increases by one per collector-side update; gaps mean this viewer
	// had updates dropped (it was slow but survived inside its queue).
	Seq int64 `json:"seq"`
	// Snapshot marks a viewer's first update, which replays the attributed
	// round history (up to snapshotRounds) instead of just the tail.
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
	// Stats merges the collector-local rollup with every session's last
	// shipped rollup (histograms omitted; counters summed, MaxRound maxed) —
	// the shippers' own totals, so they stay exact when a ring wrapped
	// before its events could be shipped.
	Stats LiveStats `json:"stats"`
	// Hosts / Rounds / Verdict / Ledger are views of the collector's fold
	// (rollup.go), fed incrementally as batches arrive.
	Hosts   []HostPhaseSum `json:"hosts,omitempty"`
	Rounds  []RoundPath    `json:"rounds,omitempty"`
	Verdict Verdict        `json:"verdict"`
	Ledger  Ledger         `json:"ledger"`
}

// sbViewer is one attached viewer: a bounded queue of marshaled updates and
// a writer goroutine draining it to the conn.
type sbViewer struct {
	conn net.Conn
	ch   chan []byte
	quit chan struct{}
	once sync.Once
}

func (v *sbViewer) close() {
	v.once.Do(func() {
		close(v.quit)
		v.conn.Close()
	})
}

// kickLive requests an immediate fan-out (coalesced; never blocks).
func (c *Collector) kickLive() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// addViewer registers a watching connection, queues its snapshot update, and
// starts its writer. Returns nil if the collector is shutting down.
func (c *Collector) addViewer(conn net.Conn) *sbViewer {
	c.drainLocal()
	snap, err := json.Marshal(c.buildUpdate(true))
	if err != nil {
		return nil
	}
	c.mu.Lock()
	select {
	case <-c.stop:
		// Registration and the stop check share the critical section so a
		// closing collector either sees this viewer in dropAllViewers or
		// refuses it here — never a registered-but-unswept leak.
		c.mu.Unlock()
		return nil
	default:
	}
	v := &sbViewer{conn: conn, ch: make(chan []byte, c.viewerCap), quit: make(chan struct{})}
	c.viewers[v] = struct{}{}
	c.mu.Unlock()
	v.ch <- snap // fresh queue; cannot block
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-v.quit:
				return
			case b := <-v.ch:
				if err := writeFrame(conn, sbUpdate, b); err != nil {
					c.dropViewer(v)
					return
				}
			}
		}
	}()
	return v
}

// dropViewer detaches a viewer and closes its connection.
func (c *Collector) dropViewer(v *sbViewer) {
	c.mu.Lock()
	delete(c.viewers, v)
	c.mu.Unlock()
	v.close()
}

func (c *Collector) dropAllViewers() {
	c.mu.Lock()
	vs := make([]*sbViewer, 0, len(c.viewers))
	for v := range c.viewers {
		vs = append(vs, v)
	}
	c.viewers = make(map[*sbViewer]struct{})
	c.mu.Unlock()
	for _, v := range vs {
		v.close()
	}
}

// updateLoop drains the local trace into the fold and fans
// updates out to viewers until the collector closes. It runs for the whole
// listener lifetime (started by Serve) so local rounds are attributed even
// before the first viewer attaches.
func (c *Collector) updateLoop() {
	tick := time.NewTicker(sbUpdateInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		case <-c.kick:
		}
		c.drainLocal()
		c.mu.Lock()
		nViewers := len(c.viewers)
		c.mu.Unlock()
		if nViewers == 0 {
			continue
		}
		b, err := json.Marshal(c.buildUpdate(false))
		if err != nil {
			continue
		}
		c.mu.Lock()
		var slow []*sbViewer
		for v := range c.viewers {
			select {
			case v.ch <- b:
			default:
				// Queue full: this viewer can't keep up. Drop it rather
				// than stall the fan-out (and with it, nothing — shippers
				// never wait on viewers, but memory would).
				slow = append(slow, v)
			}
		}
		for _, v := range slow {
			delete(c.viewers, v)
		}
		c.mu.Unlock()
		for _, v := range slow {
			v.close()
		}
	}
}

// drainLocal feeds the collector-local trace (if any) into the fold and the
// health table. Local events are already on the reference clock, so the
// offset is zero and the uncertainty the undeclared hosts' default: exact.
func (c *Collector) drainLocal() {
	c.mu.Lock()
	local := c.local
	if local != nil {
		for _, b := range local.SnapshotNew(&c.localCur) {
			c.foldLocked(b.Events, 0)
		}
	}
	c.mu.Unlock()
	for _, hb := range local.Heartbeats() {
		c.health.Update(hb)
	}
}

// buildUpdate assembles the current dashboard state.
func (c *Collector) buildUpdate(snapshot bool) *ViewUpdate {
	tail := tailRounds
	if snapshot {
		tail = snapshotRounds
	}
	c.mu.Lock()
	c.seq++
	cp := c.rollup.CriticalPath("", tail)
	u := &ViewUpdate{
		Seq:      c.seq,
		Snapshot: snapshot,
		Label:    c.label,
		Sessions: c.sessionInfosLocked(),
		Stats:    c.liveLocked(),
		Hosts:    cp.Hosts,
		Rounds:   cp.Rounds,
		Verdict:  cp.Verdict,
		Ledger:   cp.Ledger,
	}
	local := c.local
	c.mu.Unlock()
	if local != nil && u.Label == "" {
		u.Label = local.Label()
	}
	u.NowNs = c.now()
	u.Hearts = c.health.Snapshot()
	return u
}

// liveLocked merges the local rollup with every session's last shipped
// rollup, the way Trace.Live merges recorders. Histograms are omitted (their
// bucket layouts belong to the build that filled them). Caller holds c.mu.
func (c *Collector) liveLocked() LiveStats {
	parts := make([]LiveStats, 0, len(c.sess)+1)
	if c.local != nil {
		parts = append(parts, c.local.Live())
	}
	for _, s := range c.sess {
		parts = append(parts, s.stats)
	}
	tot := noEvents
	for i := range parts {
		t := parts[i].totals()
		tot.merge(&t)
	}
	out := tot.LiveStats()
	out.Label, out.Dropped, out.SyncMsgBytes = c.label, c.missed, nil
	// The counters no event carries add up the same way.
	for i := range parts {
		out.Dropped += parts[i].Dropped
		out.CkptWrites += parts[i].CkptWrites
		out.CkptBytes += parts[i].CkptBytes
		out.CkptErrors += parts[i].CkptErrors
		out.CkptRestores += parts[i].CkptRestores
	}
	return out
}

// Watcher is a live subscription to a collector, as used by gluon-trace top.
type Watcher struct {
	sbClient
	ch   chan ViewUpdate
	done chan struct{}
}

// AttachWatcher dials a collector's sideband address and subscribes to live
// updates. The first update received is the consistent snapshot; every later
// one supersedes it. If this watcher falls behind the collector drops it and
// Updates closes (Err tells why).
func AttachWatcher(addr string) (*Watcher, error) {
	conn, err := dialCollector(addr)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, sbWatch, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("trace: watch handshake: %w", err)
	}
	w := &Watcher{sbClient: sbClient{conn: conn}, ch: make(chan ViewUpdate, 4), done: make(chan struct{})}
	go w.readLoop()
	return w, nil
}

func (w *Watcher) readLoop() {
	defer close(w.done)
	defer close(w.ch)
	for {
		typ, body, err := readFrame(w.conn)
		if err != nil {
			w.setErr(err)
			return
		}
		if typ != sbUpdate {
			w.setErr(fmt.Errorf("trace: unexpected frame type %d on watch stream", typ))
			return
		}
		var u ViewUpdate
		if err := json.Unmarshal(body, &u); err != nil {
			w.setErr(fmt.Errorf("trace: bad update frame: %w", err))
			return
		}
		// Never block on a slow consumer: shed the oldest queued update —
		// each one supersedes its predecessors anyway.
		for {
			select {
			case w.ch <- u:
			default:
				select {
				case <-w.ch:
				default:
				}
				continue
			}
			break
		}
	}
}

// Updates streams ViewUpdates; the channel closes when the subscription
// ends (collector gone, watcher dropped, or Close called).
func (w *Watcher) Updates() <-chan ViewUpdate { return w.ch }

// Close detaches from the collector; Err then reports net.ErrClosed unless
// the subscription had already ended for another reason.
func (w *Watcher) Close() error {
	w.setErr(net.ErrClosed)
	err := w.conn.Close()
	<-w.done
	if err == nil || w.Err() == net.ErrClosed {
		return nil
	}
	return err
}
