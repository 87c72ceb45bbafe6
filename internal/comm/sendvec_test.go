package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"syscall"
	"testing"

	"gluon/internal/trace"
)

// Vectored-send contract tests: SendVec delivers one contiguous message,
// oversized frames fail at send time with ErrFrameTooLarge (no poisoning),
// and the TCP self-send fast path emits the same frame trace instants a
// wire frame would.

func TestTCPSendVecWire(t *testing.T) {
	eps := dialMesh(t, 2)
	hdr := []byte{0xAA, 0xBB, 0xCC}
	payload := GetBuf(5)
	copy(payload, "hello")
	if err := eps[0].SendVec(1, TagUser, hdr, payload); err != nil {
		t.Fatal(err)
	}
	// The header slice stays caller-owned after SendVec returns.
	if !bytes.Equal(hdr, []byte{0xAA, 0xBB, 0xCC}) {
		t.Fatalf("header mutated by SendVec: %x", hdr)
	}
	got, err := eps[1].Recv(0, TagUser)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xAA, 0xBB, 0xCC, 'h', 'e', 'l', 'l', 'o'}) {
		t.Fatalf("receiver saw %x, want contiguous header+payload", got)
	}
	st := eps[0].Stats()
	if st.MessagesSent != 1 || st.BytesSent != 8 {
		t.Fatalf("sender stats %+v, want 1 msg / 8 bytes", st)
	}
}

func TestTCPSendVecSelf(t *testing.T) {
	eps := dialMesh(t, 2)
	payload := GetBuf(3)
	copy(payload, "oop")
	if err := eps[0].SendVec(0, TagUser, []byte("l"), payload); err != nil {
		t.Fatal(err)
	}
	got, err := eps[0].Recv(0, TagUser)
	if err != nil || string(got) != "loop" {
		t.Fatalf("self SendVec: %q %v", got, err)
	}
}

func TestInprocSendVec(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	payload := GetBuf(4)
	copy(payload, "body")
	if err := a.SendVec(1, TagUser, []byte("hd:"), payload); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(0, TagUser)
	if err != nil || string(got) != "hd:body" {
		t.Fatalf("inproc SendVec: %q %v", got, err)
	}
	// Empty header: the zero-copy delegation to Send.
	p2 := GetBuf(4)
	copy(p2, "bare")
	if err := a.SendVec(1, TagUser, nil, p2); err != nil {
		t.Fatal(err)
	}
	got, err = b.Recv(0, TagUser)
	if err != nil || string(got) != "bare" {
		t.Fatalf("inproc SendVec nil header: %q %v", got, err)
	}
}

// TestTCPSelfSendFrameTracing pins the self-send fast-path fix: loopback
// frames must appear in frame-level timelines with both the send and recv
// instants, exactly like a frame that crossed a socket.
func TestTCPSelfSendFrameTracing(t *testing.T) {
	eps := dialMesh(t, 2)
	tr := trace.New(trace.Config{})
	eps[0].SetTrace(tr.Recorder(0))

	if err := eps[0].Send(0, TagUser, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[0].Recv(0, TagUser); err != nil {
		t.Fatal(err)
	}
	events, _ := tr.Snapshot()
	sends := collectPhase(events, trace.PhaseFrameSend)
	recvs := collectPhase(events, trace.PhaseFrameRecv)
	if len(sends) != 1 || len(recvs) != 1 {
		t.Fatalf("self-send emitted %d frame-send / %d frame-recv events, want 1/1",
			len(sends), len(recvs))
	}
	if s := sends[0]; s.Peer != 0 || s.Value != 4 || s.Field != uint32(TagUser) {
		t.Errorf("self frame-send wrong: %+v", s)
	}
	if r := recvs[0]; r.Peer != 0 || r.Value != 4 {
		t.Errorf("self frame-recv wrong: %+v", r)
	}

	// The vectored self path traces too.
	payload := GetBuf(2)
	copy(payload, "ab")
	if err := eps[0].SendVec(0, TagUser, []byte("x"), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[0].Recv(0, TagUser); err != nil {
		t.Fatal(err)
	}
	events, _ = tr.Snapshot()
	if sends := collectPhase(events, trace.PhaseFrameSend); len(sends) != 2 {
		t.Fatalf("vectored self-send not traced: %d frame-send events, want 2", len(sends))
	}
}

// TestSendTooLarge: both transports reject oversized frames at send time
// with the typed error, without poisoning the peer — the link stays usable.
//
// huge is an anonymous read-only mapping rather than a heap buffer: the send
// paths check only its length, so no page is ever touched, and a 1 GiB heap
// allocation per run gets the binary killed for memory under -race.
func TestSendTooLarge(t *testing.T) {
	huge, err := syscall.Mmap(-1, 0, MaxFrameSize+1, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Fatalf("mapping %d bytes: %v", MaxFrameSize+1, err)
	}
	t.Cleanup(func() { syscall.Munmap(huge) })

	t.Run("tcp", func(t *testing.T) {
		eps := dialMesh(t, 2)
		if err := eps[0].Send(1, TagUser, huge); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
		var pe *PeerError
		if err := eps[0].Send(1, TagUser, huge); errors.As(err, &pe) {
			t.Fatalf("oversize rejection poisoned the peer: %v", err)
		}
		// The link survived: a normal message still goes through.
		if err := eps[0].Send(1, TagUser, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if got, err := eps[1].Recv(0, TagUser); err != nil || string(got) != "ok" {
			t.Fatalf("link unusable after oversize rejection: %q %v", got, err)
		}
	})

	t.Run("tcp-self", func(t *testing.T) {
		eps := dialMesh(t, 2)
		if err := eps[0].Send(0, TagUser, huge); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
	})

	t.Run("tcp-vectored", func(t *testing.T) {
		// Header plus payload together cross the limit even though neither
		// does alone.
		eps := dialMesh(t, 2)
		err := eps[0].SendVec(1, TagUser, huge[:16], huge[:MaxFrameSize-8])
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge on combined overflow, got %v", err)
		}
	})

	t.Run("inproc", func(t *testing.T) {
		hub := NewHub(2)
		defer hub.Close()
		a := hub.Endpoint(0)
		if err := a.Send(1, TagUser, huge); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
		if err := a.SendVec(1, TagUser, huge[:16], huge[:MaxFrameSize-8]); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge on vectored overflow, got %v", err)
		}
		if err := a.Send(1, TagUser, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if got, err := hub.Endpoint(1).Recv(0, TagUser); err != nil || string(got) != "ok" {
			t.Fatalf("hub unusable after oversize rejection: %q %v", got, err)
		}
	})
}

// TestTCPPartialVectoredFrame kills the connection mid-frame — after the
// 8-byte frame header but before the payload — and asserts the receiver
// detects the truncation and poisons the sender instead of waiting forever.
// This is the failure a vectored write split by a dying link produces.
func TestTCPPartialVectoredFrame(t *testing.T) {
	eps := dialMesh(t, 2)
	c := eps[0].conns[1]
	c.mu.Lock()
	// Forge a frame header promising 100 payload bytes, then sever the link.
	hdr := make([]byte, tcpHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(TagUser))
	binary.LittleEndian.PutUint32(hdr[4:], 100)
	if _, err := c.conn.Write(hdr); err != nil {
		c.mu.Unlock()
		t.Fatal(err)
	}
	c.conn.Close()
	c.mu.Unlock()

	if _, err := eps[1].Recv(0, TagUser); err == nil {
		t.Fatal("receiver accepted a truncated vectored frame")
	} else {
		var pe *PeerError
		if !errors.As(err, &pe) || pe.Host != 0 {
			t.Fatalf("want *PeerError naming host 0, got %v", err)
		}
	}
}

// TestFaultTransportTruncateVecSend: the injected mid-writev death — header
// flushed, payload lost — fails the send with ErrTruncatedFrame and marks
// the peer dead, modelling a vectored write split by a crash.
func TestFaultTransportTruncateVecSend(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	ft := NewFaultTransport(hub.Endpoint(0), FaultConfig{TruncateVecSendAfter: 2})

	// Plain sends and nil-header SendVecs never count toward the trigger.
	if err := ft.Send(1, TagUser, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if err := ft.SendVec(1, TagUser, nil, []byte("bare")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plain", "bare"} {
		if got, err := hub.Endpoint(1).Recv(0, TagUser); err != nil || string(got) != want {
			t.Fatalf("want %q, got %q %v", want, got, err)
		}
	}
	// First vectored send passes intact...
	if err := ft.SendVec(1, TagUser, []byte("h1"), []byte("p1")); err != nil {
		t.Fatal(err)
	}
	if got, err := hub.Endpoint(1).Recv(0, TagUser); err != nil || string(got) != "h1p1" {
		t.Fatalf("pre-fault vectored send: %q %v", got, err)
	}
	// ...the second dies mid-frame.
	err := ft.SendVec(1, TagUser, []byte("h2"), []byte("p2"))
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("want ErrTruncatedFrame, got %v", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Host != 1 {
		t.Fatalf("want *PeerError naming host 1, got %v", err)
	}
	// The destination is poisoned on the wrapped transport: receives
	// involving it fail immediately instead of waiting on the dead link.
	if _, err := ft.Recv(1, TagUser); !errors.As(err, &pe) || pe.Host != 1 {
		t.Fatalf("peer not poisoned after injected truncation: %v", err)
	}
}
