package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// dialMesh brings up an n-host TCP mesh on loopback, on kernel-chosen
// ports, and returns the endpoints; they close with the test.
func dialMesh(t *testing.T, n int) []*TCPEndpoint {
	t.Helper()
	eps, _, err := DialLoopbackMesh(n, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestTCPSendRecv(t *testing.T) {
	eps := dialMesh(t, 3)
	if err := eps[0].Send(2, TagUser, []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	got, err := eps[2].Recv(0, TagUser)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over the wire" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPSelfSend(t *testing.T) {
	eps := dialMesh(t, 2)
	eps[1].Send(1, TagUser, []byte("loop"))
	got, err := eps[1].Recv(1, TagUser)
	if err != nil || string(got) != "loop" {
		t.Fatalf("self-send over tcp: %q %v", got, err)
	}
}

func TestTCPFIFO(t *testing.T) {
	eps := dialMesh(t, 2)
	const msgs = 500
	go func() {
		for i := 0; i < msgs; i++ {
			eps[0].Send(1, TagUser, []byte{byte(i), byte(i >> 8)})
		}
	}()
	for i := 0; i < msgs; i++ {
		got, err := eps[1].Recv(0, TagUser)
		if err != nil {
			t.Fatal(err)
		}
		if int(got[0])|int(got[1])<<8 != i {
			t.Fatalf("message %d out of order", i)
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	eps := dialMesh(t, 2)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	// Send owns (and may pool) the payload once called; compare against a copy.
	want := make([]byte, len(payload))
	copy(want, payload)
	go eps[0].Send(1, TagUser, payload)
	got, err := eps[1].Recv(0, TagUser)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestTCPCollectives(t *testing.T) {
	eps := dialMesh(t, 4)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for h := 0; h < 4; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			if err := Barrier(eps[h]); err != nil {
				errs[h] = err
				return
			}
			sum, err := AllReduceSum(eps[h], uint64(h))
			if err != nil {
				errs[h] = err
				return
			}
			if sum != 6 {
				errs[h] = fmt.Errorf("sum = %d", sum)
			}
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	eps := dialMesh(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := eps[0].Recv(1, TagUser)
		done <- err
	}()
	eps[0].Close()
	if err := <-done; err == nil {
		t.Fatal("Recv survived Close")
	}
	if err := eps[0].Send(1, TagUser, nil); err == nil {
		t.Fatal("Send succeeded after Close")
	}
}

func TestTCPBadRank(t *testing.T) {
	if _, err := DialTCPConfig(5, []string{"127.0.0.1:41260"}, DialConfig{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// readStream runs host 0's read loop to the end of a stream that carries
// data from host 1 through a pipe, and returns the endpoint.
func readStream(data []byte) *TCPEndpoint {
	local, remote := net.Pipe()
	e := &TCPEndpoint{addrs: make([]string, 2), mbox: newMailbox(), conns: []*tcpConn{{}, {conn: local}}}
	wrote := make(chan struct{})
	go func() {
		remote.Write(data) // fails once the loop stops reading at a malformed header
		remote.Close()
		close(wrote)
	}()
	e.wg.Add(1)
	e.readLoop(1, local)
	local.Close()
	<-wrote
	return e
}

// TestReadLoopLargeFrames: a frame above payloadChunk arrives whole, and a
// header that claims 256 MiB but is followed by 16 bytes poisons the peer
// as a truncated frame without reserving the 256 MiB.
func TestReadLoopLargeFrames(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(TagUser))
	frame = binary.LittleEndian.AppendUint32(frame, 2*payloadChunk+payloadChunk/2)
	for i := 0; i < 2*payloadChunk+payloadChunk/2; i++ {
		frame = append(frame, byte(i*7))
	}
	e := readStream(frame)
	if got, err := e.mbox.get(1, TagUser); err != nil || !bytes.Equal(got, frame[tcpHeaderLen:]) {
		t.Fatalf("large frame: read %d of %d bytes (%v), or they differ", len(got), len(frame)-tcpHeaderLen, err)
	}

	claim := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(TagUser)), 256<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e = readStream(append(claim, make([]byte, 16)...))
	runtime.ReadMemStats(&after)
	if err := e.mbox.dead[1]; err == nil || !strings.HasPrefix(err.Error(), "truncated frame") {
		t.Fatalf("short frame left host 1 poisoned with %v, want a truncated frame", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
		t.Fatalf("a 16-byte stream behind a 256 MiB header allocated %d MiB", n>>20)
	}
}

// FuzzReadLoop feeds arbitrary bytes through a pipe into the read loop of a
// two-host endpoint, as if host 1 had sent them. Every frame the loop
// delivers must be the bytes that framed it, in order, and the stream must
// end with host 1 poisoned as the bytes dictate: a lost connection, a
// truncated frame or a malformed header, or the rejoin hold when a frame
// was one.
func FuzzReadLoop(f *testing.F) {
	frame := func(tag Tag, payload ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(tag))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		return append(b, payload...)
	}
	f.Add([]byte{})
	f.Add(frame(TagUser, []byte("hello")...))
	f.Add(append(frame(TagUser, 'a'), frame(TagBarrier)...))
	f.Add(frame(TagUser, []byte("hello")...)[:10])
	f.Add(frame(TagRejoin, RejoinHold, 0, 0, 0, 0, 0, 0, 0, 7))
	f.Add(binary.LittleEndian.AppendUint32(frame(TagUser)[:4], MaxFrameSize+1))
	f.Add(binary.LittleEndian.AppendUint32(frame(TagUser)[:4], 3*payloadChunk)) // promised, never sent
	f.Fuzz(func(t *testing.T, data []byte) {
		// The frames the bytes hold, and how the stream must end.
		type msg struct {
			tag     Tag
			payload []byte
		}
		var want []msg
		var hold bool
		end := "lost"
		for rest := data; len(rest) >= tcpHeaderLen; {
			tag := Tag(binary.LittleEndian.Uint32(rest))
			n := binary.LittleEndian.Uint32(rest[4:])
			rest = rest[tcpHeaderLen:]
			if n > MaxFrameSize {
				end = "malformed"
				break
			}
			if uint32(len(rest)) < n {
				end = "truncated"
				break
			}
			want = append(want, msg{tag, rest[:n]})
			hold = hold || tag == TagRejoin && n == rejoinFrameLen && rest[0] == RejoinHold
			rest = rest[n:]
		}

		e := readStream(data)
		for i, m := range want {
			got, err := e.mbox.get(1, m.tag)
			if err != nil || !bytes.Equal(got, m.payload) {
				t.Fatalf("frame %d (tag %#x): delivered %x, %v; want %x", i, m.tag, got, err, m.payload)
			}
		}
		if len(e.mbox.queues) != 0 || e.Stats().MessagesRecvd != uint64(len(want)) {
			t.Fatalf("delivered %d frames (%d still queued), the bytes frame %d",
				e.Stats().MessagesRecvd, len(e.mbox.queues), len(want))
		}
		cause := e.mbox.dead[1]
		var ok bool
		switch {
		case hold:
			ok = errors.Is(cause, ErrRejoinHold)
		case end == "lost":
			ok = errors.Is(cause, ErrConnLost)
		default:
			ok = cause != nil && strings.HasPrefix(cause.Error(), end+" frame")
		}
		if !ok {
			t.Fatalf("stream of %d frames ending %s (hold %v) left host 1 poisoned with %v", len(want), end, hold, cause)
		}
	})
}
