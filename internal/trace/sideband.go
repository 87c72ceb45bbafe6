package trace

// Collection sideband. A multi-process cluster has one Trace per OS process,
// each on its own clock, each invisible to the others — so the per-round
// breakdowns the analyzer produces for in-process runs simply don't exist
// for the deployment mode the TCP transport was built for. The sideband
// fixes that: every process runs a Shipper that drains its Trace
// incrementally (ring cursors, so a flush only carries what's new) to a
// Collector — embedded in the host-0 process or standalone behind
// `gluon-trace serve` — over a dedicated length-prefixed TCP stream,
// separate from the substrate's data plane so observability never competes
// with sync traffic for a transport mailbox.
//
// Wire format (DESIGN.md §4.4): every frame is
//
//	[4B little-endian length n] [1B type] [n-1 bytes payload]
//
// with types
//
//	sbPing  (2): 8B LE t0, client clock — clock probe request
//	sbPong  (3): 24B LE t0,t1,t2 — t0 echoed; t1 recv, t2 send on collector clock
//	sbHello (1): JSON shipperHello — label + the client's measured ClockInfo
//	sbBatch (4): JSON HostBatch — one host's new events since the last flush
//	sbBeats (5): JSON beatFrame — the per-host heartbeat table
//	sbBye   (6): empty — orderly end of session
//	sbWatch (7): empty — a viewer's poll; the connection is a viewer, not a shipper (live.go)
//	sbUpdate(8): JSON ViewUpdate — the collector's reply to one sbWatch (live.go)
//
// A shipper session is: pings (clock probes, answered statelessly), hello,
// then any interleaving of batch/heartbeat frames, then bye. The client
// measures the collector-minus-client clock offset from the minimum-RTT
// probe (clock.go) and declares it in the hello; the collector rebases that
// session's event timestamps and heartbeats by the declared offset when
// merging, so spans from different processes land on one time axis within
// ±uncertainty. A viewer session (gluon-trace top) is a sequence of sbWatch
// polls, each answered by one sbUpdate, until either side closes (live.go).
//
// Every shipper session ends in a terminal state: "done" after an orderly
// bye, "error" when the connection drops or a frame is malformed mid-run —
// so a kill -9'd host shows up as a disconnected session with a reason, not
// a silently frozen one. The states ride in Meta.Sessions through exports
// and the analyzer header.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"
)

const (
	sbHello  byte = 1
	sbPing   byte = 2
	sbPong   byte = 3
	sbBatch  byte = 4
	sbBeats  byte = 5
	sbBye    byte = 6
	sbWatch  byte = 7
	sbUpdate byte = 8
)

// maxSidebandFrame bounds a single frame; a flush larger than this is split
// into per-host batches well below it, so the limit only rejects corruption.
const maxSidebandFrame = 256 << 20

// sbProbes is the number of clock-offset ping-pongs a shipper runs before
// its hello; sbDialTimeout bounds a client's connect and a viewer's wait for
// each reply.
const (
	sbProbes      = 8
	sbDialTimeout = 5 * time.Second
)

func dialCollector(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, sbDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("trace: dialing collector %s: %w", addr, err)
	}
	return conn, nil
}

// writeFrame writes one [len][type][payload] frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, returning its type and payload. The buffer
// grows as bytes arrive, so a header claiming a huge frame cannot reserve
// memory its sender never fills.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxSidebandFrame {
		return 0, nil, fmt.Errorf("trace: sideband frame length %d out of range", n)
	}
	var body bytes.Buffer
	body.Grow(int(min(n, 64<<10)))
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised n bytes
		}
		return 0, nil, err
	}
	return body.Bytes()[0], body.Bytes()[1:], nil
}

// shipperHello opens a session after the clock probes.
type shipperHello struct {
	Label string    `json:"label,omitempty"`
	Clock ClockInfo `json:"clock"`
}

// beatFrame is the heartbeat table a shipper sends after each flush's
// batches. The events themselves are the only counts it ships: the
// collector folds them, and a batch's Missed says what a ring lost.
type beatFrame struct {
	Heartbeats []Heartbeat `json:"heartbeats,omitempty"`
}

// ShipperConfig parameterizes StartShipper.
type ShipperConfig struct {
	// Addr is the collector's TCP address.
	Addr string
	// Trace is the local session to drain. Must be non-nil.
	Trace *Trace
	// Interval between incremental flushes (default 500ms).
	Interval time.Duration
}

// Shipper streams one process's Trace to a collector: clock handshake and
// hello at start, an incremental flush every Interval, and a final drain plus
// bye on Close.
type Shipper struct {
	conn  net.Conn
	mu    sync.Mutex
	err   error // the first error the session hit
	tr    *Trace
	clock ClockInfo

	cur  Cursor
	stop chan struct{}
	done chan struct{}
}

// StartShipper dials the collector, runs the clock handshake, announces the
// session, and begins periodic flushes. The returned Shipper must be Closed
// to drain the tail of the trace.
func StartShipper(cfg ShipperConfig) (*Shipper, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("trace: shipper needs a trace")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	conn, err := dialCollector(cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Shipper{conn: conn, tr: cfg.Trace, stop: make(chan struct{}), done: make(chan struct{})}
	clock, err := EstimateOffset(sbProbes, func() (t0, t1, t2, t3 int64, err error) {
		var ping [8]byte
		t0 = s.tr.Now()
		binary.LittleEndian.PutUint64(ping[:], uint64(t0))
		if err = writeFrame(conn, sbPing, ping[:]); err != nil {
			return
		}
		typ, body, rerr := readFrame(conn)
		t3 = s.tr.Now()
		if rerr != nil {
			err = rerr
			return
		}
		if typ != sbPong || len(body) != 24 {
			err = fmt.Errorf("trace: bad pong frame (type %d, %d bytes)", typ, len(body))
			return
		}
		if echo := int64(binary.LittleEndian.Uint64(body[0:8])); echo != t0 {
			err = fmt.Errorf("trace: pong echoes t0=%d, want %d", echo, t0)
			return
		}
		t1 = int64(binary.LittleEndian.Uint64(body[8:16]))
		t2 = int64(binary.LittleEndian.Uint64(body[16:24]))
		return
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.clock = clock
	hello, err := json.Marshal(shipperHello{Label: cfg.Trace.Label(), Clock: clock})
	if err == nil {
		err = writeFrame(conn, sbHello, hello)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("trace: shipper hello: %w", err)
	}
	go s.run(cfg.Interval)
	return s, nil
}

// Clock returns the measured collector-minus-local clock offset.
func (s *Shipper) Clock() ClockInfo { return s.clock }

func (s *Shipper) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the first error the session hit, if any.
func (s *Shipper) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Shipper) run(interval time.Duration) {
	defer close(s.done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if err := s.flush(); err != nil {
				s.setErr(err)
				return
			}
		}
	}
}

// flush ships everything emitted since the previous flush plus a fresh
// heartbeat frame.
func (s *Shipper) flush() error {
	for _, b := range s.tr.SnapshotNew(&s.cur) {
		body, err := json.Marshal(&b)
		if err != nil {
			return err
		}
		if err := writeFrame(s.conn, sbBatch, body); err != nil {
			return err
		}
	}
	body, err := json.Marshal(&beatFrame{Heartbeats: s.tr.Heartbeats()})
	if err != nil {
		return err
	}
	return writeFrame(s.conn, sbBeats, body)
}

// Close stops the flush loop, drains the trace tail, sends bye, and closes
// the connection. It returns the first error the session hit.
func (s *Shipper) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	if s.Err() == nil {
		if err := s.flush(); err != nil {
			s.setErr(err)
		} else if err := writeFrame(s.conn, sbBye, nil); err != nil {
			s.setErr(err)
		}
	}
	if err := s.conn.Close(); err != nil && s.Err() == nil {
		s.setErr(err)
	}
	return s.Err()
}

// Collector accepts sideband sessions and accumulates their events and
// heartbeats into one cluster-wide view. Every source reaches it the same
// way: a process that runs the collector and records hosts of its own ships
// them over a loopback session like any other (gluon-run -top-addr).
type Collector struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	sess   []*sbSession // shipper sessions in hello order
	health *Health      // its clock is the collector's reference clock
	label  string
	// missed counts the events rings overwrote before the shippers' batches
	// could read them: the events missing from the fold.
	missed uint64
	errs   []error

	// Live plane (live.go): the one fold, fed under mu as batches arrive,
	// and the viewer connections Close must end.
	rollup   *Rollup
	viewers  map[net.Conn]struct{}
	seq      int64
	stop     chan struct{}
	stopOnce sync.Once
}

// sbSession is one shipper's lifecycle record, created at hello.
type sbSession struct {
	id     int
	addr   string
	label  string
	hosts  map[int32]struct{}
	state  string // "active", "done", "error"
	errMsg string
	// clock is the session's measured collector-minus-client offset, fixed
	// at hello; events holds its shipped batches untouched, on the client's
	// clock, until a merge rebases them (clock.go).
	clock  ClockInfo
	events []Event
	lastNs int64 // collector clock at the last frame received
}

// SessionInfo is the exported view of a shipper session's state; it rides in
// Meta.Sessions and in live ViewUpdates so the analyzer and gluon-trace top can
// tell a finished host from a disconnected one.
type SessionInfo struct {
	ID    int     `json:"id"`
	Addr  string  `json:"addr,omitempty"`
	Label string  `json:"label,omitempty"`
	Hosts []int32 `json:"hosts,omitempty"`
	// State is "active", "done" (orderly bye), or "error" (conn dropped or
	// malformed frame mid-run); Error carries the reason for "error".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// LastNs is the collector clock when the session's last frame arrived.
	LastNs int64 `json:"last_ns,omitempty"`
}

// ListenAndCollect starts a collector on addr (e.g. ":9123" or
// "127.0.0.1:0") and accepts sessions in the background until Close.
func ListenAndCollect(addr string) (*Collector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("trace: collector listen %s: %w", addr, err)
	}
	c := &Collector{
		ln:      ln,
		health:  NewHealth(nil),
		rollup:  NewRollup(),
		viewers: make(map[net.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveSession(conn)
			}()
		}
	}()
	return c, nil
}

// Addr returns the listening address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// serveSession runs one connection to completion — a shipper's session, or
// a viewer's polls once it sends sbWatch.
func (c *Collector) serveSession(conn net.Conn) {
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.viewers, conn)
		c.mu.Unlock()
	}()
	var sess *sbSession
	sawBye := false
	watching := false
	// fail marks the session errored with a reason; the record is the
	// terminal state gluon-trace top renders as "disconnected" and the analyzer
	// surfaces in its header.
	fail := func(reason string) {
		if sess == nil {
			return
		}
		c.mu.Lock()
		if sess.state == "active" {
			sess.state = "error"
			sess.errMsg = reason
			c.foldLocked(nil, 0) // an ended session releases its hold
		}
		c.mu.Unlock()
	}
	for {
		typ, body, err := readFrame(conn)
		if err != nil {
			if watching {
				return
			}
			if !sawBye {
				fail(fmt.Sprintf("connection lost before bye: %v", err))
				if err != io.EOF {
					c.addErr(fmt.Errorf("trace: sideband session %s: %w", conn.RemoteAddr(), err))
				}
			}
			break
		}
		if sess != nil {
			c.mu.Lock()
			sess.lastNs = c.health.Now()
			c.mu.Unlock()
		} else if typ == sbBatch || typ == sbBeats {
			// Batches and heartbeats are stored per session, under the clock
			// its hello declared.
			c.addErr(fmt.Errorf("trace: sideband session %s sent frame type %d before hello", conn.RemoteAddr(), typ))
			return
		}
		switch typ {
		case sbPing:
			if len(body) != 8 {
				c.addErr(fmt.Errorf("trace: bad ping frame (%d bytes)", len(body)))
				fail("malformed ping frame")
				return
			}
			t1 := c.health.Now()
			var pong [24]byte
			copy(pong[0:8], body)
			binary.LittleEndian.PutUint64(pong[8:16], uint64(t1))
			binary.LittleEndian.PutUint64(pong[16:24], uint64(c.health.Now()))
			if err := writeFrame(conn, sbPong, pong[:]); err != nil {
				c.addErr(err)
				fail("pong write failed")
				return
			}
		case sbHello:
			var h shipperHello
			if err := json.Unmarshal(body, &h); err != nil {
				c.addErr(fmt.Errorf("trace: bad hello: %w", err))
				return
			}
			c.mu.Lock()
			if c.label == "" {
				c.label = h.Label
			}
			sess = &sbSession{
				id:    len(c.sess),
				addr:  conn.RemoteAddr().String(),
				label: h.Label,
				hosts: make(map[int32]struct{}),
				state: "active",
				// The client measured collector-minus-client; adding that
				// offset to client timestamps rebases them onto the collector
				// clock.
				clock:  h.Clock,
				lastNs: c.health.Now(),
			}
			c.sess = append(c.sess, sess)
			c.mu.Unlock()
		case sbBatch:
			var b HostBatch
			if err := json.Unmarshal(body, &b); err != nil {
				c.addErr(fmt.Errorf("trace: bad batch: %w", err))
				fail("malformed batch frame")
				return
			}
			c.mu.Lock()
			sess.events = append(sess.events, b.Events...)
			c.missed += b.Missed
			sess.hosts[b.Host] = struct{}{}
			// Fold on the collector's time axis; the fold rebases without mutating,
			// so the raw copy kept for Merged() is untouched.
			c.rollup.SetHostClock(b.Host, sess.clock.UncertaintyNs)
			c.foldLocked(b.Events, sess.clock.OffsetNs)
			c.mu.Unlock()
		case sbBeats:
			var f beatFrame
			if err := json.Unmarshal(body, &f); err != nil {
				c.addErr(fmt.Errorf("trace: bad heartbeats: %w", err))
				fail("malformed heartbeat frame")
				return
			}
			c.mu.Lock()
			for _, hb := range f.Heartbeats {
				sess.hosts[hb.Host] = struct{}{}
			}
			c.mu.Unlock()
			for _, hb := range f.Heartbeats {
				hb.BeatNs += sess.clock.OffsetNs
				c.health.Update(hb)
			}
		case sbBye:
			sawBye = true
			c.mu.Lock()
			if sess != nil {
				sess.state = "done"
				c.foldLocked(nil, 0) // an ended session releases its hold
			}
			c.mu.Unlock()
			return
		case sbWatch:
			if sess != nil {
				c.addErr(fmt.Errorf("trace: sideband session %s sent watch after hello", conn.RemoteAddr()))
				fail("watch frame on shipper session")
				return
			}
			// The conn is a viewer: register it at its first poll, and
			// answer every poll with one update, the first the snapshot.
			if !watching && !c.watch(conn) {
				return // collector shutting down
			}
			if err := c.reply(conn, !watching); err != nil {
				return
			}
			watching = true
		default:
			c.addErr(fmt.Errorf("trace: unknown sideband frame type %d", typ))
			fail(fmt.Sprintf("unknown frame type %d", typ))
			return
		}
	}
}

// foldLocked feeds events to the fold, then closes the rounds every known
// host has left — unless a session holds the frontier: one that said hello
// but has not shipped a span yet. Its hosts are unknown to the fold, which
// would close rounds without them. A process's shipper says hello before
// its first barrier and a round needs every process, so every session that
// could still add a host to a round is announced before the round can
// close (DESIGN.md §4.4).
// Caller holds c.mu.
func (c *Collector) foldLocked(events []Event, offsetNs int64) {
	c.rollup.fold(events, offsetNs)
	for _, s := range c.sess {
		if s.state == "active" && !c.rollup.spans(s.hosts) {
			return
		}
	}
	c.rollup.advance()
}

func (c *Collector) addErr(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
}

// Errs returns the session errors observed so far.
func (c *Collector) Errs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.errs...)
}

// Sessions returns (announced, cleanly completed) shipper session counts.
// A session is counted when its hello arrives — viewer connections
// (gluon-trace top) never count — and completes on an orderly bye.
func (c *Collector) Sessions() (accepted, completed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sess {
		if s.state == "done" {
			completed++
		}
	}
	return len(c.sess), completed
}

// SessionInfos returns every shipper session's lifecycle record, in arrival
// order. Sessions in state "error" carry the disconnect reason.
func (c *Collector) SessionInfos() []SessionInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionInfosLocked()
}

func (c *Collector) sessionInfosLocked() []SessionInfo {
	out := make([]SessionInfo, 0, len(c.sess))
	for _, s := range c.sess {
		si := SessionInfo{
			ID: s.id, Addr: s.addr, Label: s.label,
			State: s.state, Error: s.errMsg, LastNs: s.lastNs,
		}
		for h := range s.hosts {
			si.Hosts = append(si.Hosts, h)
		}
		sort.Slice(si.Hosts, func(i, j int) bool { return si.Hosts[i] < si.Hosts[j] })
		out = append(out, si)
	}
	return out
}

// Close stops accepting, closes every viewer connection, and waits for
// in-flight sessions to finish. Call after the shippers have Closed (each
// Close drains and says bye).
func (c *Collector) Close() error {
	c.ln.Close()
	c.stopOnce.Do(func() { close(c.stop) })
	c.mu.Lock()
	for conn := range c.viewers {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}

// Merged returns the cluster-wide timeline: every shipped batch, its
// timestamps rebased by the declared per-session clock offsets, sorted on
// the collector time axis. Meta carries the label, the events missing from
// the timeline (the sessions' missed counts), and the per-host clock table.
func (c *Collector) Merged() ([]Event, Meta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	srcs := make([]clockedEvents, 0, len(c.sess))
	// The clock table is per host: every host a session shipped for runs on
	// that session's clock (a replaced rank keeps its newest).
	byHost := make(map[int32]ClockInfo)
	for _, s := range c.sess {
		srcs = append(srcs, clockedEvents{events: s.events, offsetNs: s.clock.OffsetNs})
		for h := range s.hosts {
			byHost[h] = s.clock
		}
	}
	clocks := make([]ClockInfo, 0, len(byHost))
	for h, ci := range byHost {
		ci.Host = h
		clocks = append(clocks, ci)
	}
	sort.Slice(clocks, func(i, j int) bool { return clocks[i].Host < clocks[j].Host })
	return mergeAligned(srcs), Meta{Label: c.label, Dropped: c.missed, Clocks: clocks, Sessions: c.sessionInfosLocked()}
}
