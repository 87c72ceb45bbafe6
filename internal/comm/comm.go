// Package comm provides the message transport Gluon runs over.
//
// The paper's Gluon sits on MPI or LCI (Figure 1). Here the same role is
// played by a small point-to-point transport interface with two
// implementations: an in-process one over Go channels (hosts are
// goroutines) and a TCP one over net (hosts may be separate processes).
// Gluon itself is transport-agnostic: it produces byte payloads and tags,
// exactly as it hands buffers to MPI in the original system.
//
// On top of point-to-point sends the package builds the collectives BSP
// execution needs: barrier, all-reduce, and all-gather.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is the sentinel wrapped by every error a transport returns after
// Close: pending and future Recv/RecvAny unblock with an error matching
// errors.Is(err, ErrClosed), and Sends fail the same way.
var ErrClosed = errors.New("comm: transport closed")

// ErrFrameTooLarge is the sentinel wrapped by the error Send/SendVec return
// when the message (header plus payload) exceeds MaxFrameSize. The frame is
// rejected before any byte reaches the wire — the peer is not poisoned and
// the link stays usable — so an oversized message is a caller bug surfaced
// at the send site, not a malformed-frame fault discovered by the receiver's
// read loop. Match with errors.Is(err, ErrFrameTooLarge). The payload is
// still released per the ownership contract.
var ErrFrameTooLarge = errors.New("comm: frame exceeds MaxFrameSize")

// ErrConnLost is wrapped by the cause of a *PeerError raised because the
// connection to the peer broke or was closed under it: it says that the
// peer went away, not why.
var ErrConnLost = errors.New("comm: connection lost")

// PeerError reports that a specific peer failed: its connection died, it
// delivered a malformed frame, or the runtime declared it dead (see
// PeerFailer). Every Recv/RecvAny blocked on — or later directed at — a
// failed peer returns a *PeerError naming it, so a BSP job surfaces a dead
// host as a diagnosable failure instead of a silent stall. Match with
// errors.As(err, &pe) where pe is a *PeerError.
type PeerError struct {
	// Host is the rank of the failed peer.
	Host int
	// Err is the underlying cause (connection error, malformed frame, or an
	// injected/propagated fault).
	Err error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("comm: peer %d failed: %v", e.Host, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// PeerFailer is implemented by transports that can mark a single peer as
// failed without tearing down the whole endpoint. After FailPeer(h, err),
// messages already received from h remain deliverable, but any Recv/RecvAny
// that would otherwise block waiting on h returns a *PeerError{Host: h}
// immediately. Both built-in transports and FaultTransport implement it; the
// dsys runner uses it to propagate one host's failure to the survivors so a
// cluster fails loudly instead of hanging.
type PeerFailer interface {
	FailPeer(host int, err error)
}

// NetModel adds simulated network costs to the in-process transport: each
// message occupies its (sender, receiver) link for
// Latency + size/Bandwidth, and links serialize their messages, so a
// communication-heavy system slows down in proportion to what it sends —
// the regime the paper's clusters operate in (DESIGN.md §2 explains the
// substitution). The zero value disables modeling (instant delivery).
type NetModel struct {
	// Latency is the per-message link latency.
	Latency time.Duration
	// Bandwidth is the per-link throughput in bytes/second (0 = infinite).
	Bandwidth float64
}

// Enabled reports whether any cost is modeled.
func (m NetModel) Enabled() bool { return m.Latency > 0 || m.Bandwidth > 0 }

// cost returns the link occupancy of one message of the given size.
func (m NetModel) cost(size int) time.Duration {
	d := m.Latency
	if m.Bandwidth > 0 {
		d += time.Duration(float64(size) / m.Bandwidth * float64(time.Second))
	}
	return d
}

// Tag identifies the logical stream a message belongs to. Matching is done
// on (sender, tag): a receiver asks for the next message with a given tag
// from a given peer. Gluon derives tags from (field, round parity, pattern)
// so concurrent field syncs never cross.
type Tag uint32

// Reserved tag ranges for the runtime's own protocols.
const (
	TagBarrier   Tag = 0xFFFF0001
	TagAllReduce Tag = 0xFFFF0002
	TagMemo      Tag = 0xFFFF0004
	TagTerm      Tag = 0xFFFF0005
	// TagHeartbeat carries the watchdog's liveness gossip between processes
	// (see dsys); it rides the data transport but never blocks a sync:
	// heartbeats are fire-and-forget and drained by a dedicated goroutine.
	TagHeartbeat Tag = 0xFFFF0006
	// TagRejoin carries the checkpoint/restore rendezvous (HOLD/RESUME
	// frames, see dsys and DESIGN.md §4.6). It is exempt from poison
	// fail-fast: a receive on TagRejoin keeps waiting even for a peer that
	// has been declared dead, because the whole point of the rendezvous is
	// to wait for that peer's replacement to dial back in.
	TagRejoin Tag = 0xFFFF0007
	TagUser   Tag = 0x00010000 // first tag available to applications
)

// ErrRejoinHold is the poison cause installed when a peer announces a
// checkpoint-rollback rendezvous (a HOLD frame on TagRejoin). It is
// curable: receivers unblocked by it should enter the rendezvous rather
// than escalate, and FlushAndCure clears it once the mesh re-forms.
var ErrRejoinHold = errors.New("comm: peer holding for checkpoint rejoin")

// Rejoiner is implemented by transports that support the checkpoint
// rendezvous: FlushAndCure drops every undelivered in-flight message on
// data tags (their rounds are being rolled back; buffers are released to
// the pool) while preserving queued TagRejoin frames, and clears all
// peer poisons so the re-formed mesh is usable again. ConnGeneration
// reports how many times the link to a peer has been replaced by a
// rejoining replacement host — the rendezvous re-sends its HOLD when the
// generation moved under a send, because a frame written to a dying
// connection can be silently swallowed without a send error. Transports
// whose links cannot be replaced return a constant.
type Rejoiner interface {
	FlushAndCure()
	ConnGeneration(peer int) int
}

// Transport is a reliable, ordered (per sender/tag pair) point-to-point
// message layer between NumHosts hosts.
//
// Payload ownership and release contract: ownership of the buffer passed to
// Send transfers to the transport — callers must not read or modify it
// afterwards. A transport that copies the payload onto a wire inside Send
// (TCP) releases the buffer back to the payload pool (PutBuf) before
// returning; a zero-copy transport (in-process) hands the same buffer to the
// receiver, whose Recv/RecvAny caller assumes ownership and should release
// it with PutBuf once decoded. Build payloads with GetBuf and the steady
// state is allocation-free end to end; buffers from make() simply join the
// pool. Custom Transport implementations must honor the same contract.
//
// SendVec extends the contract with a split-ownership rule: the payload
// transfers to the transport exactly as in Send, but the header slice stays
// owned by the caller — the transport consumes it (copies or writes it to
// the wire) before SendVec returns and never retains a reference to it, so
// callers may keep the header in a stack array or reused scratch buffer.
// The receiver observes a single contiguous message of
// len(header)+len(payload) bytes; the split exists only on the send side.
type Transport interface {
	// HostID returns this endpoint's rank in [0, NumHosts).
	HostID() int
	// NumHosts returns the number of hosts in the communicator.
	NumHosts() int
	// Send delivers payload to host `to` under `tag`. The payload is owned
	// by the transport after Send returns (see the release contract above);
	// callers must not touch it. Sending to self is allowed and loops back.
	Send(to int, tag Tag, payload []byte) error
	// SendVec delivers header++payload to host `to` under `tag` as one
	// message, gathering the two slices on the wire (writev on TCP) so the
	// caller never coalesces them. Ownership splits: payload transfers to
	// the transport as in Send; header remains caller-owned and is fully
	// consumed before SendVec returns. An empty header makes SendVec
	// equivalent to Send(to, tag, payload).
	SendVec(to int, tag Tag, header, payload []byte) error
	// Recv blocks until a message with the given tag arrives from host
	// `from`, and returns its payload. The caller owns the returned buffer
	// and should release it with PutBuf when done decoding.
	Recv(from int, tag Tag) ([]byte, error)
	// RecvAny blocks until a message with the given tag is available from
	// any of the listed peers, and returns the sender's rank alongside the
	// payload (owned by the caller, like Recv). A nil peer list matches any
	// sender. Per-(sender, tag) FIFO order is preserved: for each sender,
	// RecvAny always returns that sender's oldest pending message for the
	// tag. When several peers have deliverable messages, the one that
	// became deliverable earliest wins, so receivers drain messages in
	// arrival order rather than rank order.
	RecvAny(tag Tag, from []int) (int, []byte, error)
	// Stats returns cumulative transport-level counters for this endpoint.
	Stats() Stats
	// Close releases resources. Further Sends fail; pending Recvs and
	// RecvAnys unblock with an error.
	Close() error
}

// Stats counts traffic through one endpoint.
type Stats struct {
	MessagesSent  uint64
	BytesSent     uint64
	MessagesRecvd uint64
	BytesRecvd    uint64
}

type counters struct {
	msgsSent, bytesSent   atomic.Uint64
	msgsRecvd, bytesRecvd atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		MessagesSent:  c.msgsSent.Load(),
		BytesSent:     c.bytesSent.Load(),
		MessagesRecvd: c.msgsRecvd.Load(),
		BytesRecvd:    c.bytesRecvd.Load(),
	}
}

// mailbox holds arrived messages not yet claimed by Recv, keyed by
// (sender, tag). It is the demultiplexer both transports share. Entries
// carry a readiness time so the in-process transport can simulate link
// costs (see NetModel) without breaking per-(sender, tag) FIFO order.
//
// A peer can be poisoned: once dead[h] is set, messages already queued from
// h stay deliverable (they arrived intact before the failure), but a get or
// getAny that would block on h fails with *PeerError instead. The first
// recorded error wins, so the root cause survives cascading failures.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[mailKey][]mailEntry
	dead   map[int]error
	closed bool
}

type mailKey struct {
	from int
	tag  Tag
}

type mailEntry struct {
	payload []byte
	readyAt time.Time // zero means immediately available
}

func newMailbox() *mailbox {
	m := &mailbox{queues: make(map[mailKey][]mailEntry)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(from int, tag Tag, payload []byte) {
	m.putAt(from, tag, payload, time.Time{})
}

func (m *mailbox) putAt(from int, tag Tag, payload []byte, readyAt time.Time) {
	m.mu.Lock()
	if m.closed {
		// close() already drained the queues and every get fails with
		// ErrClosed, so an entry enqueued now is unreachable: a sender
		// racing a teardown must release the payload, not strand it.
		m.mu.Unlock()
		PutBuf(payload)
		return
	}
	k := mailKey{from, tag}
	m.queues[k] = append(m.queues[k], mailEntry{payload: payload, readyAt: readyAt})
	m.mu.Unlock()
	m.cond.Broadcast()
}

// poison marks peer `from` as failed and wakes every waiter so blocked
// receives involving it return *PeerError. Idempotent; the first error is
// kept as the cause.
func (m *mailbox) poison(from int, err error) {
	m.mu.Lock()
	if m.dead == nil {
		m.dead = make(map[int]error)
	}
	if _, ok := m.dead[from]; !ok {
		m.dead[from] = err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// peerErr returns the poison error for a peer, or nil. Caller holds m.mu.
func (m *mailbox) peerErr(from int) error {
	if err, ok := m.dead[from]; ok {
		return &PeerError{Host: from, Err: err}
	}
	return nil
}

// sleepUntil waits until the modeled delivery deadline t. In-flight delays
// under NetModel are typically tens of microseconds, far below the parked
// runtime timer resolution (~1ms on Linux), so a bare time.Sleep would
// quantize every modeled hop up to the timer tick and swamp the model.
// Sleep off all but the last stretch, then yield-spin the remainder: the
// spin yields the processor every iteration, so it never starves runnable
// work, and it only burns otherwise-idle cycles.
func sleepUntil(t time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(t); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func (m *mailbox) get(from int, tag Tag) ([]byte, error) {
	k := mailKey{from, tag}
	m.mu.Lock()
	for {
		if q := m.queues[k]; len(q) > 0 {
			e := q[0]
			if wait := time.Until(e.readyAt); wait > 0 {
				// Simulated transfer still in flight: sleep it off without
				// holding the lock, then re-check (the queue head cannot
				// change order — entries per key are FIFO and only get
				// consumes them, but another Recv on the same key could
				// take it, so loop).
				m.mu.Unlock()
				sleepUntil(e.readyAt)
				m.mu.Lock()
				continue
			}
			if len(q) == 1 {
				delete(m.queues, k)
			} else {
				m.queues[k] = q[1:]
			}
			m.mu.Unlock()
			return e.payload, nil
		}
		// Nothing queued from this peer: fail fast if it is dead rather
		// than block on a message that can never arrive. TagRejoin is
		// exempt — the rendezvous waits out the poison for a replacement.
		if tag != TagRejoin {
			if err := m.peerErr(from); err != nil {
				m.mu.Unlock()
				return nil, err
			}
		}
		if m.closed {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w while waiting for tag %#x from host %d", ErrClosed, tag, from)
		}
		m.cond.Wait()
	}
}

// getAny returns the next deliverable message with the given tag from any
// of the listed peers (nil = any sender), preferring the message whose
// modeled delivery completes earliest. Per-(sender, tag) FIFO order is
// preserved because only queue heads are considered.
func (m *mailbox) getAny(tag Tag, peers []int) (int, []byte, error) {
	m.mu.Lock()
	for {
		// Find the queue head with the earliest readiness time.
		from := -1
		var readyAt time.Time
		consider := func(k mailKey) {
			q := m.queues[k]
			if len(q) == 0 {
				return
			}
			if from < 0 || q[0].readyAt.Before(readyAt) {
				from, readyAt = k.from, q[0].readyAt
			}
		}
		if peers == nil {
			for k := range m.queues {
				if k.tag == tag {
					consider(k)
				}
			}
		} else {
			for _, p := range peers {
				consider(mailKey{p, tag})
			}
		}
		if from >= 0 {
			if wait := time.Until(readyAt); wait > 0 {
				// The earliest known message is still in modeled flight.
				// Sleep it off without holding the lock, then re-scan (the
				// same mechanism as get). A message sent later with a
				// shorter modeled delay is simply delivered on the next
				// scan — delivery order between senders is best-effort,
				// only per-(sender, tag) FIFO is guaranteed.
				m.mu.Unlock()
				sleepUntil(readyAt)
				m.mu.Lock()
				continue
			}
			k := mailKey{from, tag}
			q := m.queues[k]
			e := q[0]
			if len(q) == 1 {
				delete(m.queues, k)
			} else {
				m.queues[k] = q[1:]
			}
			m.mu.Unlock()
			return from, e.payload, nil
		}
		// No deliverable message among the candidates. If any candidate
		// peer is dead the wait can never be satisfied by it — fail loudly
		// now instead of gambling that the live peers cover the caller.
		// TagRejoin is exempt (see get).
		if m.dead != nil && tag != TagRejoin {
			if peers == nil {
				for p := range m.dead {
					err := m.peerErr(p)
					m.mu.Unlock()
					return -1, nil, err
				}
			} else {
				for _, p := range peers {
					if err := m.peerErr(p); err != nil {
						m.mu.Unlock()
						return -1, nil, err
					}
				}
			}
		}
		if m.closed {
			m.mu.Unlock()
			return -1, nil, fmt.Errorf("%w while waiting for tag %#x from any peer", ErrClosed, tag)
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	// Queued messages are unreachable after close (get returns ErrClosed),
	// so release their buffers back to the pool instead of leaking them —
	// this is what keeps gets == puts across fault suites that tear a
	// cluster down mid-conversation.
	for k, q := range m.queues {
		for _, e := range q {
			PutBuf(e.payload)
		}
		delete(m.queues, k)
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// flushAndCure implements Rejoiner for mailbox-backed transports: every
// queued message on a non-rejoin tag is dropped (released to the pool) and
// every peer poison is cleared. Called only from inside the rendezvous,
// after HOLD frames from all peers prove no stale pre-rollback data can
// still be in flight behind them (per-(sender, tag) FIFO).
func (m *mailbox) flushAndCure() {
	m.mu.Lock()
	for k, q := range m.queues {
		if k.tag == TagRejoin {
			continue
		}
		for _, e := range q {
			PutBuf(e.payload)
		}
		delete(m.queues, k)
	}
	m.dead = nil
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Barrier blocks until every host has entered the barrier. It uses a
// dissemination pattern: log2(n) rounds of pairwise messages, so it is
// correct for any transport without a coordinator.
func Barrier(t Transport) error {
	n := t.NumHosts()
	if n == 1 {
		return nil
	}
	me := t.HostID()
	for dist := 1; dist < n; dist *= 2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		if err := t.Send(to, TagBarrier, nil); err != nil {
			return err
		}
		p, err := t.Recv(from, TagBarrier)
		if err != nil {
			return err
		}
		PutBuf(p)
	}
	return nil
}

// StartAllReduce is the split-phase all-reduce: it posts val and returns, so
// the caller can work while the other hosts arrive, and Pending.Wait
// collects the result. op must be associative and commutative. Host 0
// gathers, reduces and broadcasts: a non-root host sends its value here and
// receives the total in Wait; host 0 does its gather-and-reply in Wait, so
// every transport call stays on the calling goroutine. The messages are
// the same whenever Wait is called.
func StartAllReduce(t Transport, val uint64, op func(a, b uint64) uint64) Pending {
	p := Pending{t: t, val: val, op: op}
	if t.NumHosts() > 1 && t.HostID() != 0 {
		p.err = sendOperand(t, 0, val)
	}
	return p
}

// Pending is an all-reduce started by StartAllReduce whose result has not
// been collected. Call Wait exactly once.
type Pending struct {
	t   Transport
	val uint64
	op  func(a, b uint64) uint64
	err error // from posting val
}

// Wait blocks until the collective completes and returns the combined
// value. Close or FailPeer while it blocks make it return an error matching
// ErrClosed or a *PeerError, as a blocked Recv does.
func (p Pending) Wait() (uint64, error) {
	n := p.t.NumHosts()
	switch {
	case p.err != nil:
		return 0, p.err
	case n == 1:
		return p.val, nil
	case p.t.HostID() != 0:
		return recvOperand(p.t, 0)
	}
	for h := 1; h < n; h++ {
		v, err := recvOperand(p.t, h)
		if err != nil {
			return 0, err
		}
		p.val = p.op(p.val, v)
	}
	for h := 1; h < n; h++ {
		if err := sendOperand(p.t, h, p.val); err != nil {
			return 0, err
		}
	}
	return p.val, nil
}

// sendOperand and recvOperand move one all-reduce value, 8 bytes little
// endian under TagAllReduce. An operand of another length is the sender's
// fault: a *PeerError naming it.
func sendOperand(t Transport, to int, v uint64) error {
	buf := GetBuf(8)
	binary.LittleEndian.PutUint64(buf, v)
	return t.Send(to, TagAllReduce, buf)
}

func recvOperand(t Transport, from int) (uint64, error) {
	p, err := t.Recv(from, TagAllReduce)
	if err != nil {
		return 0, err
	}
	defer PutBuf(p)
	v, err := decodeOperand(p)
	if err != nil {
		return 0, &PeerError{Host: from, Err: err}
	}
	return v, nil
}

func decodeOperand(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("comm: all-reduce operand is %d bytes, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// Sum and Max are the all-reduce operators the runtime uses.
func Sum(a, b uint64) uint64 { return a + b }
func Max(a, b uint64) uint64 { return max(a, b) }

// AllReduceSum and AllReduceMax are the blocking all-reduces:
// StartAllReduce, then Wait.
func AllReduceSum(t Transport, val uint64) (uint64, error) { return StartAllReduce(t, val, Sum).Wait() }
func AllReduceMax(t Transport, val uint64) (uint64, error) { return StartAllReduce(t, val, Max).Wait() }
