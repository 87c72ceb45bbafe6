package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gluon/internal/trace"
)

// TCPEndpoint is a Transport over real sockets. Each endpoint listens on an
// address; a full mesh of connections is established at dial time. The wire
// format per message is an 8-byte header — tag uint32, length uint32,
// little-endian — followed by the payload. The sender's rank is implicit in
// the connection (each conn carries exactly one peer pair, established by
// the rank handshake at dial time).
//
// It exists so clusters of separate OS processes can run Gluon systems (see
// examples/tcp-cluster); functionally it is interchangeable with Hub.
//
// Fault behavior: when a connection dies or delivers a malformed frame, the
// peer is poisoned — pending and future Recv/RecvAny involving it return a
// *PeerError naming the host — and Sends to it fail the same way. The rest
// of the mesh keeps working, so the layer above decides whether one dead
// peer is fatal (for BSP it always is, and dsys propagates the failure).
type TCPEndpoint struct {
	id    int
	addrs []string
	mbox  *mailbox
	ctr   counters
	traceRef

	conns    []*tcpConn // conns[i] carries traffic to/from host i; conns[id] unused
	listener net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
}

// poison marks a peer dead on the mailbox, emitting a fault trace event so
// fault-suite runs produce a readable timeline. Organic poisonings (a lost
// connection, a malformed frame) additionally freeze a postmortem bundle
// when a flight recorder is armed; a rejoin hold is an orderly rendezvous,
// not a failure, and dumps nothing.
func (e *TCPEndpoint) poison(from int, err error) {
	traceFaultf(e.rec(), from, "peer poisoned: %v", err)
	if !errors.Is(err, ErrRejoinHold) {
		crashDump(e.rec(), trace.TriggerPeerPoison, e.id, from, err)
	}
	e.mbox.poison(from, err)
}

// tcpConn is one peer link. Writes are serialized per connection — not per
// endpoint — so one slow peer never blocks sends to the others. The hdr and
// vec fields are per-conn write scratch, reused under mu so the vectored
// send path allocates nothing: vec aliases vecArr, whose slots are cleared
// after every write so the conn never pins a released payload buffer.
type tcpConn struct {
	mu     sync.Mutex
	conn   net.Conn // nil until the mesh handshake installs it
	gen    int      // bumped when acceptRejoins replaces conn (see ConnGeneration)
	hdr    [tcpHeaderLen]byte
	vecArr [3][]byte // frame header + optional caller header + payload
	vec    net.Buffers
}

const tcpHeaderLen = 8 // tag uint32 + length uint32

// MaxFrameSize bounds the payload length a TCPEndpoint will accept in one
// frame. A decoded length above it marks the frame malformed and poisons the
// peer instead of letting a corrupt (or hostile) header drive an arbitrary
// allocation.
const MaxFrameSize = 1 << 30

// DefaultDialTimeout bounds mesh establishment when DialConfig.Timeout is
// zero. Generous, because higher-ranked peers legitimately start later; the
// point is to turn "a peer never came up" into an error instead of an
// unbounded hang.
const DefaultDialTimeout = 30 * time.Second

// DialConfig tunes TCP mesh establishment.
type DialConfig struct {
	// Timeout bounds the whole mesh establishment — dialing higher-ranked
	// peers (with backoff retries) and accepting lower-ranked ones,
	// handshakes included. A peer that never appears fails the dial with an
	// error naming it, instead of blocking Accept forever. Zero means
	// DefaultDialTimeout.
	Timeout time.Duration
}

// DialTCP creates host id's endpoint of an n-host TCP communicator with the
// default mesh-establishment timeout. addrs[i] is the listen address of
// host i; addrs[id] is where this endpoint listens. DialTCP blocks until
// the full connection mesh is established: each endpoint accepts
// connections from lower-ranked hosts and dials higher-ranked hosts.
func DialTCP(id int, addrs []string) (*TCPEndpoint, error) {
	return DialTCPConfig(id, addrs, DialConfig{})
}

// DialTCPConfig is DialTCP with explicit establishment parameters.
func DialTCPConfig(id int, addrs []string, cfg DialConfig) (*TCPEndpoint, error) {
	n := len(addrs)
	if id < 0 || id >= n {
		return nil, fmt.Errorf("comm: host id %d out of range [0,%d)", id, n)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)

	e := &TCPEndpoint{id: id, addrs: addrs, mbox: newMailbox(), conns: make([]*tcpConn, n)}
	for i := range e.conns {
		e.conns[i] = &tcpConn{}
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", addrs[id], err)
	}
	e.listener = ln
	if tl, ok := ln.(*net.TCPListener); ok {
		// Bound Accept by the mesh deadline so a lower-ranked peer that
		// never dials fails the whole establishment instead of hanging.
		tl.SetDeadline(deadline)
	}

	errc := make(chan error, 2)
	var setup sync.WaitGroup

	// Accept connections from lower-ranked peers; each sends its rank first.
	setup.Add(1)
	go func() {
		defer setup.Done()
		for i := 0; i < id; i++ {
			conn, err := ln.Accept()
			if err != nil {
				errc <- fmt.Errorf("comm: accept (waiting for %d lower-ranked peers): %w", id-i, err)
				return
			}
			conn.SetDeadline(deadline)
			var rank [4]byte
			if _, err := io.ReadFull(conn, rank[:]); err != nil {
				errc <- fmt.Errorf("comm: handshake read: %w", err)
				return
			}
			peer := int(binary.LittleEndian.Uint32(rank[:]))
			if peer >= id || peer < 0 || peer >= n {
				errc <- fmt.Errorf("comm: unexpected peer rank %d", peer)
				return
			}
			conn.SetDeadline(time.Time{})
			e.conns[peer].mu.Lock()
			e.conns[peer].conn = conn
			e.conns[peer].mu.Unlock()
		}
	}()

	// Dial higher-ranked peers, announcing our rank.
	setup.Add(1)
	go func() {
		defer setup.Done()
		for i := id + 1; i < n; i++ {
			conn, err := dialRetry(addrs[i], deadline)
			if err != nil {
				errc <- fmt.Errorf("comm: dial host %d (%s): %w", i, addrs[i], err)
				return
			}
			conn.SetDeadline(deadline)
			var rank [4]byte
			binary.LittleEndian.PutUint32(rank[:], uint32(id))
			if _, err := conn.Write(rank[:]); err != nil {
				errc <- fmt.Errorf("comm: handshake write to host %d: %w", i, err)
				return
			}
			conn.SetDeadline(time.Time{})
			e.conns[i].mu.Lock()
			e.conns[i].conn = conn
			e.conns[i].mu.Unlock()
		}
	}()

	setup.Wait()
	select {
	case err := <-errc:
		e.Close()
		return nil, err
	default:
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}

	for i, c := range e.conns {
		if i == id || c.conn == nil {
			continue
		}
		e.wg.Add(1)
		go e.readLoop(i, c.conn)
	}
	// The listener stays open for the life of the endpoint: replacement
	// hosts for a dead rank dial back in with the rejoin handshake
	// (DESIGN.md §4.6) and are accepted here.
	e.wg.Add(1)
	go e.acceptRejoins()
	return e, nil
}

// dialRetry dials addr until it succeeds or the deadline expires, backing
// off exponentially between refused attempts (a peer's listener may simply
// not be up yet) instead of hammering the address in a busy-loop.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	backoff := time.Millisecond
	const maxBackoff = 250 * time.Millisecond
	var lastErr error
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn, nil
		}
		lastErr = err
		if !time.Now().Add(backoff).Before(deadline) {
			return nil, fmt.Errorf("deadline exceeded, last attempt: %w", lastErr)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// readLoop drains one peer connection into the mailbox. Any read error or
// malformed frame on a live endpoint poisons the peer: blocked receives
// involving it return *PeerError immediately rather than waiting for a
// message that will never arrive.
func (e *TCPEndpoint) readLoop(from int, conn net.Conn) {
	defer e.wg.Done()
	hdr := make([]byte, tcpHeaderLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			if !e.closed.Load() && e.connCurrent(from, conn) {
				e.poison(from, fmt.Errorf("%w: %w", ErrConnLost, err))
			}
			return
		}
		tag := Tag(binary.LittleEndian.Uint32(hdr[0:]))
		length := binary.LittleEndian.Uint32(hdr[4:])
		if length > MaxFrameSize {
			// Validate before allocating: a corrupt header must not drive
			// a giant allocation, and the stream is unrecoverable once
			// framing is lost.
			e.poison(from, fmt.Errorf("malformed frame: length %d exceeds max %d", length, MaxFrameSize))
			conn.Close()
			return
		}
		payload := GetBuf(int(length))
		if _, err := io.ReadFull(conn, payload); err != nil {
			PutBuf(payload)
			if !e.closed.Load() && e.connCurrent(from, conn) {
				e.poison(from, fmt.Errorf("truncated frame (wanted %d payload bytes): %w", length, err))
			}
			return
		}
		// A HOLD frame doubles as a curable poison: every receive blocked on
		// this peer's data tags unblocks with ErrRejoinHold and the layer
		// above routes into the rendezvous instead of escalating. The kind
		// byte is inspected before the enqueue — after mbox.put the receiver
		// owns the buffer.
		hold := tag == TagRejoin && length == rejoinFrameLen && payload[0] == RejoinHold
		e.ctr.msgsRecvd.Add(1)
		e.ctr.bytesRecvd.Add(uint64(length))
		// Record the instant before the enqueue, so a receiver that has
		// the frame always finds its frame-recv event already emitted.
		traceFrame(e.rec(), trace.PhaseFrameRecv, from, tag, int(length))
		e.mbox.put(from, tag, payload)
		if hold {
			e.poison(from, ErrRejoinHold)
		}
	}
}

// connCurrent reports whether conn is still the installed link for the
// peer. A read loop whose connection was superseded by a replacement
// (acceptRejoins) must exit without poisoning: the poison may have already
// been cured by the rendezvous, and re-poisoning would wedge the cluster.
func (e *TCPEndpoint) connCurrent(from int, conn net.Conn) bool {
	c := e.conns[from]
	c.mu.Lock()
	cur := c.conn
	c.mu.Unlock()
	return cur == conn
}

// HostID implements Transport.
func (e *TCPEndpoint) HostID() int { return e.id }

// NumHosts implements Transport.
func (e *TCPEndpoint) NumHosts() int { return len(e.addrs) }

// Send implements Transport. Writes are serialized per peer connection, so
// a slow or stalled peer only delays further sends to that same peer.
func (e *TCPEndpoint) Send(to int, tag Tag, payload []byte) error {
	return e.SendVec(to, tag, nil, payload)
}

// SendVec implements Transport. The frame header, the caller's header, and
// the payload go to the socket as one vectored write (net.Buffers → writev),
// so the payload is never copied between the encode buffer and the kernel.
// Oversized frames are rejected here, before any byte reaches the wire, with
// an error wrapping ErrFrameTooLarge — the peer is not poisoned, because no
// framing was corrupted.
func (e *TCPEndpoint) SendVec(to int, tag Tag, header, payload []byte) error {
	n := len(header) + len(payload)
	if n > MaxFrameSize {
		PutBuf(payload)
		return fmt.Errorf("comm: send to host %d: %d-byte frame: %w", to, n, ErrFrameTooLarge)
	}
	if to == e.id {
		// Loopback: deliver through the mailbox without touching the socket
		// layer. A caller header still has to be coalesced — the receiver
		// sees one contiguous message — but the common nil-header case stays
		// zero-copy. Self frames get the same send/recv trace instants a
		// wire frame would, so they are visible in frame-level timelines.
		if len(header) > 0 {
			buf := GetBuf(n)
			copy(buf, header)
			copy(buf[len(header):], payload)
			PutBuf(payload)
			payload = buf
		}
		e.ctr.msgsSent.Add(1)
		e.ctr.bytesSent.Add(uint64(n))
		e.ctr.msgsRecvd.Add(1)
		e.ctr.bytesRecvd.Add(uint64(n))
		traceFrame(e.rec(), trace.PhaseFrameSend, to, tag, n)
		traceFrame(e.rec(), trace.PhaseFrameRecv, to, tag, n)
		e.mbox.put(e.id, tag, payload)
		return nil
	}
	if to < 0 || to >= len(e.addrs) {
		PutBuf(payload)
		return fmt.Errorf("comm: send to host %d of %d", to, len(e.addrs))
	}
	c := e.conns[to]
	c.mu.Lock()
	if e.closed.Load() || c.conn == nil {
		c.mu.Unlock()
		PutBuf(payload)
		return fmt.Errorf("comm: send to host %d: %w", to, ErrClosed)
	}
	binary.LittleEndian.PutUint32(c.hdr[0:], uint32(tag))
	binary.LittleEndian.PutUint32(c.hdr[4:], uint32(n))
	c.vecArr[0] = c.hdr[:]
	nv := 1
	if len(header) > 0 {
		c.vecArr[nv] = header
		nv++
	}
	if len(payload) > 0 {
		c.vecArr[nv] = payload
		nv++
	}
	// vec aliases the conn-owned array, so WriteTo consuming it allocates
	// nothing; the slots are cleared below so released buffers aren't pinned.
	c.vec = net.Buffers(c.vecArr[:nv])
	_, err := c.vec.WriteTo(c.conn)
	c.vecArr[1], c.vecArr[2] = nil, nil
	c.mu.Unlock()
	// The payload is on the wire (or the link is dead): release it per the
	// Transport contract so pooled sender buffers are reclaimed here.
	PutBuf(payload)
	if err != nil {
		// The conn is shared by both directions — a failed write means the
		// peer link is gone for reads too.
		lost := fmt.Errorf("%w: send failed: %w", ErrConnLost, err)
		e.poison(to, lost)
		return &PeerError{Host: to, Err: lost}
	}
	e.ctr.msgsSent.Add(1)
	e.ctr.bytesSent.Add(uint64(n))
	traceFrame(e.rec(), trace.PhaseFrameSend, to, tag, n)
	return nil
}

// Recv implements Transport.
func (e *TCPEndpoint) Recv(from int, tag Tag) ([]byte, error) {
	return e.mbox.get(from, tag)
}

// RecvAny implements Transport.
func (e *TCPEndpoint) RecvAny(tag Tag, from []int) (int, []byte, error) {
	return e.mbox.getAny(tag, from)
}

// Stats implements Transport.
func (e *TCPEndpoint) Stats() Stats { return e.ctr.snapshot() }

// FailPeer implements PeerFailer: it poisons the mailbox for the peer and
// severs its connection, so blocked receives fail with *PeerError and the
// peer's read loop terminates.
func (e *TCPEndpoint) FailPeer(host int, err error) {
	if host < 0 || host >= len(e.addrs) || host == e.id {
		return
	}
	traceFaultf(e.rec(), host, "peer declared dead: %v", err)
	crashDump(e.rec(), trace.TriggerDeadHost, e.id, host, err)
	e.mbox.poison(host, err)
	c := e.conns[host]
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
}

// Addr returns the address this endpoint is actually listening on (useful
// when the configured address used port 0).
func (e *TCPEndpoint) Addr() string {
	if e.listener == nil {
		return ""
	}
	return e.listener.Addr().String()
}

// Close implements Transport. It is safe during in-flight collectives:
// every blocked Recv/RecvAny unblocks with an error wrapping ErrClosed, and
// further Sends fail.
func (e *TCPEndpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	if e.listener != nil {
		e.listener.Close()
	}
	for i, c := range e.conns {
		if i == e.id {
			continue
		}
		c.mu.Lock()
		if c.conn != nil {
			c.conn.Close()
		}
		c.mu.Unlock()
	}
	e.mbox.close()
	e.wg.Wait()
	return nil
}
