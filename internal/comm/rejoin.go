package comm

// Checkpoint-rendezvous wire support (DESIGN.md §4.6). The rendezvous
// itself — who sends HOLD/RESUME when, and how the rollback epoch is
// agreed — lives in dsys; this file owns the frame format and the
// replacement host's entry point, RejoinTCP. The TCP side intercepts HOLD
// frames in readLoop and accepts a replacement's links in acceptLoop.

import (
	"encoding/binary"
	"fmt"
)

// Rejoin frame kinds, carried in the first payload byte on TagRejoin.
const (
	// RejoinHold announces "I am rolling back to a checkpoint; stop
	// trusting in-flight data from me and meet me at the rendezvous". The
	// frame carries the sender's newest complete on-disk epoch.
	RejoinHold byte = 1
	// RejoinResume announces "I have flushed stale state and cured my
	// mailbox; everything I send after this frame is post-rollback".
	RejoinResume byte = 2
	// RejoinHoldReply is a HOLD re-sent to a replacement host whose new
	// connection superseded the one the original HOLD was written to. It
	// carries the same epoch but, unlike RejoinHold, is NOT intercepted by
	// the TCP poison path: the receiver is already at the rendezvous, and
	// a duplicate arriving after its FlushAndCure must not re-poison the
	// cured peer.
	RejoinHoldReply byte = 3
)

const rejoinFrameLen = 9 // kind byte + epoch u64

// EncodeRejoinFrame builds a pooled HOLD/RESUME payload.
func EncodeRejoinFrame(kind byte, epoch uint64) []byte {
	p := GetBuf(rejoinFrameLen)
	p[0] = kind
	binary.LittleEndian.PutUint64(p[1:], epoch)
	return p
}

// DecodeRejoinFrame parses a TagRejoin payload (not releasing it).
func DecodeRejoinFrame(p []byte) (kind byte, epoch uint64, err error) {
	if len(p) != rejoinFrameLen {
		return 0, 0, fmt.Errorf("comm: rejoin frame is %d bytes, want %d", len(p), rejoinFrameLen)
	}
	k := p[0]
	if k != RejoinHold && k != RejoinResume && k != RejoinHoldReply {
		return 0, 0, fmt.Errorf("comm: unknown rejoin frame kind %d", k)
	}
	return k, binary.LittleEndian.Uint64(p[1:]), nil
}

// rejoinBit marks a rank handshake as a replacement host's dial rather than
// a mesh-formation dial (see acceptLoop). Mesh formation only ever carries
// ranks below the acceptor's id, so the bit is unambiguous.
const rejoinBit = uint32(1) << 31

// FlushAndCure implements Rejoiner (see comm.go).
func (e *TCPEndpoint) FlushAndCure() {
	e.mbox.flushAndCure()
}

// ConnGeneration implements Rejoiner: it returns how many times the link
// to peer has been replaced by a rejoining host. The rendezvous layer
// compares generations across its HOLD exchange — a send on a TCP
// connection whose remote has died can "succeed" into the socket buffer
// and silently vanish, so send errors cannot tell a host that its HOLD
// was lost; a generation bump can.
func (e *TCPEndpoint) ConnGeneration(peer int) int {
	if peer < 0 || peer >= len(e.conns) {
		return 0
	}
	c := e.conns[peer]
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// RejoinTCP builds the replacement host's endpoint of an existing n-host
// mesh: it listens on addrs[id] (the dead rank's address, so later
// replacements can find it) and dials every survivor with the rejoin
// handshake, through the same deadline-bounded dial as DialTCPConfig. The
// caller is expected to have loaded a checkpoint and to enter the dsys
// rendezvous immediately; survivors hold there until this endpoint's HOLD
// frames arrive.
func RejoinTCP(id int, addrs []string, cfg DialConfig) (*TCPEndpoint, error) {
	return listenTCP(id, addrs, cfg, true)
}
