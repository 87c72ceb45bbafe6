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
	joined   chan struct{} // one value per formation link accepted; buffered for all id of them
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
	gen    int      // bumped when a replacement host's link supersedes conn (see ConnGeneration)
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
	// error instead of a wait forever. Zero means DefaultDialTimeout.
	Timeout time.Duration
}

// DialTCPConfig creates host id's endpoint of an n-host TCP communicator.
// addrs[i] is the listen address of host i; addrs[id] is where this
// endpoint listens. It blocks until the full connection mesh is
// established, or cfg.Timeout passes: each endpoint dials the higher-ranked
// hosts and waits for the lower-ranked ones to dial in.
func DialTCPConfig(id int, addrs []string, cfg DialConfig) (*TCPEndpoint, error) {
	return listenTCP(id, addrs, cfg, false)
}

// listenTCP listens on addrs[id] and opens the endpoint on that listener.
func listenTCP(id int, addrs []string, cfg DialConfig, rejoin bool) (*TCPEndpoint, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("comm: host id %d out of range [0,%d)", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", addrs[id], err)
	}
	return openTCP(id, addrs, ln, cfg, rejoin)
}

// openTCP builds host id's endpoint around ln, a listener already bound to
// addrs[id], which the endpoint owns from here on (it is closed on failure
// and by Close). The listener's accept loop is the endpoint's only way in,
// for its life. A forming endpoint (rejoin false) dials the higher ranks
// and waits for its id lower ranks to be accepted; a replacement (rejoin
// true) dials every peer with the rejoin handshake and waits for nobody.
// Either way the mesh must be up before cfg.Timeout passes.
func openTCP(id int, addrs []string, ln net.Listener, cfg DialConfig, rejoin bool) (*TCPEndpoint, error) {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)
	e := &TCPEndpoint{id: id, addrs: addrs, mbox: newMailbox(), conns: make([]*tcpConn, len(addrs)),
		listener: ln, joined: make(chan struct{}, id)}
	for i := range e.conns {
		e.conns[i] = &tcpConn{}
	}
	e.wg.Add(1)
	go e.acceptLoop()
	fail := func(err error) (*TCPEndpoint, error) {
		e.Close()
		return nil, err
	}

	first, rank, lower := id+1, uint32(id), id
	if rejoin {
		first, rank, lower = 0, rejoinBit|uint32(id), 0
	}
	for i := first; i < len(addrs); i++ {
		if i == id {
			continue
		}
		if err := e.dial(i, rank, deadline); err != nil {
			return fail(err)
		}
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for ; lower > 0; lower-- {
		select {
		case <-e.joined:
		case <-timer.C:
			return fail(fmt.Errorf("comm: host %d: %d lower-ranked peers never dialed in", id, lower))
		}
	}
	return e, nil
}

// dial connects to peer, dialing until it succeeds or the deadline expires
// and backing off exponentially between refused attempts (the peer's
// listener may simply not be up yet), sends the 4-byte rank word and
// installs the link.
func (e *TCPEndpoint) dial(peer int, rank uint32, deadline time.Time) error {
	backoff := time.Millisecond
	const maxBackoff = 250 * time.Millisecond
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", e.addrs[peer])
		if err == nil {
			conn.SetDeadline(deadline)
			if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, rank)); err != nil {
				conn.Close()
				return fmt.Errorf("comm: handshake to host %d: %w", peer, err)
			}
			conn.SetDeadline(time.Time{})
			if !e.install(peer, conn, false) {
				return fmt.Errorf("comm: link to host %d refused: endpoint closed or link already up", peer)
			}
			return nil
		}
		if !time.Now().Add(backoff).Before(deadline) {
			return fmt.Errorf("comm: dial host %d (%s): deadline exceeded, last attempt: %w", peer, e.addrs[peer], err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// handshakeTimeout bounds the rank read on an accepted connection; a
// half-open dialer must not wedge the accept loop.
const handshakeTimeout = 10 * time.Second

// acceptLoop runs for the life of the endpoint and is its only way in.
// Every connection opens with a 4-byte rank word. A plain rank is a
// mesh-formation link, taken only into the empty slot of a lower rank. A
// rank with rejoinBit set is a replacement host for that rank (DESIGN.md
// §4.6): it supersedes the dead incarnation's link. Poisons are NOT cleared
// here — FlushAndCure does that once the dsys rendezvous has collected HOLD
// frames from everyone — but the new read loop delivers the replacement's
// TagRejoin frames at once (TagRejoin is exempt from poison fail-fast).
// Anything else is closed.
func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			if e.closed.Load() {
				return
			}
			// Transient error on a live endpoint: keep accepting.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		conn.SetDeadline(time.Now().Add(handshakeTimeout))
		var word [4]byte
		if _, err := io.ReadFull(conn, word[:]); err != nil {
			conn.Close()
			continue
		}
		conn.SetDeadline(time.Time{})
		rank := binary.LittleEndian.Uint32(word[:])
		peer := int(rank &^ rejoinBit)
		switch {
		case rank&rejoinBit == 0 && peer < e.id:
			if e.install(peer, conn, false) {
				e.joined <- struct{}{}
			}
		case rank&rejoinBit != 0 && peer < len(e.addrs) && peer != e.id:
			if e.install(peer, conn, true) {
				traceFaultf(e.rec(), peer, "replacement connection accepted")
			}
		default:
			conn.Close()
		}
	}
}

// install makes conn the link to peer and starts its read loop, both under
// the slot lock: Close sets closed before it takes each slot lock to close
// the link, so a link is either installed in time to be closed by Close or
// refused here. A new link takes only an empty slot; a replacement closes
// the dead incarnation (whose read loop then exits without poisoning, see
// connCurrent) and bumps the slot's generation. A refused conn is closed.
func (e *TCPEndpoint) install(peer int, conn net.Conn, replace bool) bool {
	c := e.conns[peer]
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.closed.Load() || c.conn != nil && !replace {
		conn.Close()
		return false
	}
	if replace {
		if c.conn != nil {
			c.conn.Close()
		}
		c.gen++
	}
	c.conn = conn
	e.wg.Add(1)
	go e.readLoop(peer, conn)
	return true
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
		payload, err := readPayload(conn, int(length))
		if err != nil {
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

// payloadChunk is the most a frame's header alone makes readPayload
// reserve.
const payloadChunk = 1 << 20

// readPayload reads a length-byte payload into a pooled buffer. A payload
// above payloadChunk is read into a buffer that doubles as its bytes
// arrive, so a corrupt header claiming up to MaxFrameSize costs about the
// bytes its sender actually sent, not the bytes it promised.
func readPayload(r io.Reader, length int) ([]byte, error) {
	buf := GetBuf(min(length, payloadChunk))
	n := 0
	for {
		m, err := io.ReadFull(r, buf[n:])
		if err != nil {
			PutBuf(buf)
			return nil, err
		}
		if n += m; n == length {
			return buf, nil
		}
		next := GetBuf(min(2*n, length))
		copy(next, buf)
		PutBuf(buf)
		buf = next
	}
}

// connCurrent reports whether conn is still the installed link for the
// peer. A read loop whose connection was superseded by a replacement
// (see install) must exit without poisoning: the poison may have already
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

// Close implements Transport. It is safe during in-flight collectives:
// every blocked Recv/RecvAny unblocks with an error wrapping ErrClosed, and
// further Sends fail.
func (e *TCPEndpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.listener.Close()
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
