package comm

import (
	"testing"
	"time"
)

// TestRecvAnyOutOfOrder sends a large message from host 0 and a small one
// from host 1 under a bandwidth-limited NetModel, and asserts RecvAny hands
// back host 1's message first even though host 0 is listed first and sent
// first: completion order, not rank order.
func TestRecvAnyOutOfOrder(t *testing.T) {
	hub := NewHubWithModel(3, NetModel{Latency: time.Millisecond, Bandwidth: 1e7})
	defer hub.Close()

	big := make([]byte, 200_000) // ~21ms modeled transfer
	big[0] = 'B'
	small := []byte{'s'} // ~1ms modeled transfer
	if err := hub.Endpoint(0).Send(2, TagUser, big); err != nil {
		t.Fatal(err)
	}
	if err := hub.Endpoint(1).Send(2, TagUser, small); err != nil {
		t.Fatal(err)
	}

	rx := hub.Endpoint(2)
	from, p, err := rx.RecvAny(TagUser, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if from != 1 || len(p) != 1 || p[0] != 's' {
		t.Fatalf("first completion: from=%d len=%d, want the small message from host 1", from, len(p))
	}
	from, p, err = rx.RecvAny(TagUser, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 || len(p) != len(big) || p[0] != 'B' {
		t.Fatalf("second completion: from=%d len=%d, want the big message from host 0", from, len(p))
	}
}

// TestRecvAnyFIFOPerSender interleaves sequence-numbered streams from two
// senders and drains them with RecvAny, checking each sender's stream is
// still observed in send order.
func TestRecvAnyFIFOPerSender(t *testing.T) {
	hub := NewHub(3)
	defer hub.Close()

	const msgs = 200
	for i := 0; i < msgs; i++ {
		for src := 0; src < 2; src++ {
			if err := hub.Endpoint(src).Send(2, TagUser, []byte{byte(src), byte(i), byte(i >> 8)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := [2]int{}
	rx := hub.Endpoint(2)
	for n := 0; n < 2*msgs; n++ {
		from, p, err := rx.RecvAny(TagUser, nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(p[0]) != from {
			t.Fatalf("message claims sender %d, transport says %d", p[0], from)
		}
		seq := int(p[1]) | int(p[2])<<8
		if seq != next[from] {
			t.Fatalf("sender %d: got seq %d, want %d", from, seq, next[from])
		}
		next[from]++
	}
	if next[0] != msgs || next[1] != msgs {
		t.Fatalf("drained %d+%d messages, want %d each", next[0], next[1], msgs)
	}
}

// TestRecvAnyPeerFilter checks the peer list is honored: a queued message
// from an unlisted sender is not returned, and remains retrievable later.
func TestRecvAnyPeerFilter(t *testing.T) {
	hub := NewHub(3)
	defer hub.Close()

	hub.Endpoint(0).Send(2, TagUser, []byte("from0"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		from, p, err := hub.Endpoint(2).RecvAny(TagUser, []int{1})
		if err != nil || from != 1 || string(p) != "from1" {
			t.Errorf("filtered RecvAny: from=%d payload=%q err=%v", from, p, err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let RecvAny block past host 0's message
	hub.Endpoint(1).Send(2, TagUser, []byte("from1"))
	<-done

	p, err := hub.Endpoint(2).Recv(0, TagUser)
	if err != nil || string(p) != "from0" {
		t.Fatalf("host 0's message lost: %q %v", p, err)
	}
}

// TestRecvAnyTagIsolation checks RecvAny with a nil peer list only matches
// its own tag.
func TestRecvAnyTagIsolation(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()

	hub.Endpoint(0).Send(1, TagUser+1, []byte("other"))
	hub.Endpoint(0).Send(1, TagUser, []byte("mine"))
	from, p, err := hub.Endpoint(1).RecvAny(TagUser, nil)
	if err != nil || from != 0 || string(p) != "mine" {
		t.Fatalf("RecvAny crossed tags: from=%d payload=%q err=%v", from, p, err)
	}
}

// TestRecvAnyCloseUnblocks checks Close wakes a pending RecvAny with an
// error on the in-process transport.
func TestRecvAnyCloseUnblocks(t *testing.T) {
	hub := NewHub(2)
	done := make(chan error, 1)
	go func() {
		_, _, err := hub.Endpoint(1).RecvAny(TagUser, []int{0})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	hub.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RecvAny survived Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvAny still blocked after Close")
	}
}

// TestTCPRecvAny covers RecvAny over real sockets: it completes for
// whichever sender's message arrives first (no waiting on silent peers),
// preserves per-sender FIFO order, and reports the right sender.
func TestTCPRecvAny(t *testing.T) {
	eps := dialMesh(t, 3)

	// Host 1 sends while host 0 stays silent: RecvAny must complete without
	// host 0's message, which a fixed rank-order Recv(0) could not.
	if err := eps[1].Send(2, TagUser, []byte("eager")); err != nil {
		t.Fatal(err)
	}
	from, p, err := eps[2].RecvAny(TagUser, []int{0, 1})
	if err != nil || from != 1 || string(p) != "eager" {
		t.Fatalf("RecvAny: from=%d payload=%q err=%v", from, p, err)
	}

	// Interleaved numbered streams from both senders stay FIFO per sender.
	const msgs = 100
	for i := 0; i < msgs; i++ {
		if err := eps[0].Send(2, TagUser, []byte{0, byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := eps[1].Send(2, TagUser, []byte{1, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	next := [2]int{}
	for n := 0; n < 2*msgs; n++ {
		from, p, err := eps[2].RecvAny(TagUser, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if int(p[0]) != from {
			t.Fatalf("message claims sender %d, transport says %d", p[0], from)
		}
		if int(p[1]) != next[from] {
			t.Fatalf("sender %d: got seq %d, want %d", from, p[1], next[from])
		}
		next[from]++
	}
}

// TestTCPRecvAnyCloseUnblocks checks Close wakes a pending RecvAny with an
// error on the TCP transport.
func TestTCPRecvAnyCloseUnblocks(t *testing.T) {
	eps := dialMesh(t, 2)
	done := make(chan error, 1)
	go func() {
		_, _, err := eps[0].RecvAny(TagUser, []int{1})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	eps[0].Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RecvAny survived Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvAny still blocked after Close")
	}
}

// TestBufPoolRoundTrip checks GetBuf/PutBuf size-class behavior.
func TestBufPoolRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1 << 16} {
		b := GetBuf(n)
		if len(b) != n && n > 0 {
			t.Fatalf("GetBuf(%d) length %d", n, len(b))
		}
		if n <= 0 && b != nil {
			t.Fatalf("GetBuf(%d) = non-nil", n)
		}
		PutBuf(b)
		b2 := GetBuf(n)
		if len(b2) != n && n > 0 {
			t.Fatalf("re-GetBuf(%d) length %d", n, len(b2))
		}
	}
	// A pooled buffer must never be handed out shorter than requested.
	PutBuf(make([]byte, 100)) // capacity 100 files under class 64
	if b := GetBuf(100); len(b) != 100 {
		t.Fatalf("GetBuf(100) length %d", len(b))
	}
}
