package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitErr asserts that fn returns within d and hands back its error. It is
// the anti-hang harness: a fault must surface as an error, never a stall.
func waitErr(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
		return nil
	}
}

// asPeerError asserts err carries a *PeerError naming host.
func asPeerError(t *testing.T, err error, host int) *PeerError {
	t.Helper()
	if err == nil {
		t.Fatalf("want *PeerError for host %d, got nil", host)
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PeerError, got %T: %v", err, err)
	}
	if pe.Host != host {
		t.Fatalf("PeerError names host %d, want %d (err: %v)", pe.Host, host, err)
	}
	return pe
}

func TestFailPeerUnblocksRecv(t *testing.T) {
	hub := NewHub(3)
	defer hub.Close()
	ep := hub.Endpoint(0)

	// A pending Recv on a live peer unblocks the moment the peer fails.
	cause := errors.New("simulated death")
	go func() {
		time.Sleep(10 * time.Millisecond)
		ep.(PeerFailer).FailPeer(2, cause)
	}()
	err := waitErr(t, 5*time.Second, "Recv from failed peer", func() error {
		_, err := ep.Recv(2, TagUser)
		return err
	})
	pe := asPeerError(t, err, 2)
	if !errors.Is(pe, cause) {
		t.Fatalf("cause not preserved: %v", err)
	}

	// Future receives fail immediately too.
	if _, err := ep.Recv(2, TagUser); err == nil {
		t.Fatal("Recv from poisoned peer succeeded")
	}
	// Other peers are unaffected.
	hub.Endpoint(1).Send(0, TagUser, []byte("alive"))
	if _, err := ep.Recv(1, TagUser); err != nil {
		t.Fatalf("live peer affected by poison: %v", err)
	}
}

func TestFailPeerUnblocksRecvAny(t *testing.T) {
	hub := NewHub(3)
	defer hub.Close()
	ep := hub.Endpoint(0)

	for _, peers := range [][]int{nil, {1, 2}} {
		hub2 := NewHub(3)
		ep2 := hub2.Endpoint(0)
		go func() {
			time.Sleep(10 * time.Millisecond)
			ep2.(PeerFailer).FailPeer(1, errors.New("gone"))
		}()
		err := waitErr(t, 5*time.Second, fmt.Sprintf("RecvAny(peers=%v)", peers), func() error {
			_, _, err := ep2.RecvAny(TagUser, peers)
			return err
		})
		asPeerError(t, err, 1)
		hub2.Close()
	}

	// RecvAny scoped to live peers only is unaffected by an unrelated
	// poisoned peer.
	ep.(PeerFailer).FailPeer(2, errors.New("gone"))
	hub.Endpoint(1).Send(0, TagUser, []byte("x"))
	h, _, err := ep.RecvAny(TagUser, []int{1})
	if err != nil || h != 1 {
		t.Fatalf("RecvAny over live peers: host %d, err %v", h, err)
	}
}

func TestPoisonedPeerQueuedMessagesStayDeliverable(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	ep := hub.Endpoint(0)
	hub.Endpoint(1).Send(0, TagUser, []byte("sent before death"))
	ep.(PeerFailer).FailPeer(1, errors.New("died after sending"))

	// The message that arrived intact before the failure is still served...
	p, err := ep.Recv(1, TagUser)
	if err != nil || string(p) != "sent before death" {
		t.Fatalf("queued message lost: %q, %v", p, err)
	}
	// ...and only then does the poison surface.
	_, err = ep.Recv(1, TagUser)
	asPeerError(t, err, 1)
}

func TestFaultTransportKillAfterSends(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	ft := NewFaultTransport(hub.Endpoint(0), FaultConfig{KillAfterSends: 2, KillPeer: 1})

	for i := 0; i < 2; i++ {
		if err := ft.Send(1, TagUser, []byte("ok")); err != nil {
			t.Fatalf("send %d before the kill threshold failed: %v", i, err)
		}
	}
	err := ft.Send(1, TagUser, []byte("dropped"))
	pe := asPeerError(t, err, 1)
	if !errors.Is(pe, ErrInjectedFault) {
		t.Fatalf("want ErrInjectedFault, got %v", err)
	}
	// The kill also poisons the receive side: waiting on the dead peer
	// fails immediately instead of blocking.
	err = waitErr(t, 5*time.Second, "Recv from killed peer", func() error {
		_, err := ft.Recv(1, TagUser)
		return err
	})
	asPeerError(t, err, 1)
	// Later sends to the dead peer keep failing.
	if err := ft.Send(1, TagUser, []byte("still dead")); err == nil {
		t.Fatal("send to killed peer succeeded")
	}
}

func TestFaultTransportTruncateRecv(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	ft := NewFaultTransport(hub.Endpoint(0), FaultConfig{TruncateRecvAfter: 2})

	hub.Endpoint(1).Send(0, TagUser, []byte("first"))
	hub.Endpoint(1).Send(0, TagUser, []byte("second"))

	if p, err := ft.Recv(1, TagUser); err != nil || string(p) != "first" {
		t.Fatalf("recv before fault: %q, %v", p, err)
	}
	_, err := ft.Recv(1, TagUser)
	pe := asPeerError(t, err, 1)
	if !errors.Is(pe, ErrTruncatedFrame) {
		t.Fatalf("want ErrTruncatedFrame, got %v", err)
	}
	// The malformed frame poisoned its sender for good.
	err = waitErr(t, 5*time.Second, "Recv after truncated frame", func() error {
		_, err := ft.Recv(1, TagUser)
		return err
	})
	asPeerError(t, err, 1)
}

func TestFaultTransportDelay(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	const delay = 30 * time.Millisecond
	ft := NewFaultTransport(hub.Endpoint(0), FaultConfig{DelayEvery: 1, Delay: delay})

	start := time.Now()
	if err := ft.Send(1, TagUser, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Endpoint(1).Recv(0, TagUser); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("delayed frame arrived in %v, want >= %v", took, delay)
	}
}

// TestTCPMidStreamPeerDeath kills one endpoint during an active exchange
// and asserts every other host's pending Recv/RecvAny returns a *PeerError
// naming the dead host within 5 seconds — the no-hang contract.
func TestTCPMidStreamPeerDeath(t *testing.T) {
	eps := dialMesh(t, 3)

	// An active stream: host 0 sends one message to each peer, then dies.
	eps[0].Send(1, TagUser, []byte("mid-stream"))
	eps[0].Send(2, TagUser, []byte("mid-stream"))
	for _, h := range []int{1, 2} {
		if _, err := eps[h].Recv(0, TagUser); err != nil {
			t.Fatalf("host %d: recv before death: %v", h, err)
		}
	}

	// Host 1 blocks in Recv, host 2 in RecvAny, both on host 0.
	errs := make(chan error, 2)
	go func() {
		_, err := eps[1].Recv(0, TagUser)
		errs <- err
	}()
	go func() {
		_, _, err := eps[2].RecvAny(TagUser, []int{0})
		errs <- err
	}()

	time.Sleep(20 * time.Millisecond) // let both receivers park
	eps[0].Close()                    // the "process" dies

	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			asPeerError(t, err, 0)
		case <-deadline:
			t.Fatal("pending receive still blocked 5s after peer death")
		}
	}

	// Sends to the dead peer fail loudly too (possibly after the OS
	// buffers a first write; a few attempts must surface the error).
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = eps[1].Send(0, TagUser, []byte("into the void"))
		time.Sleep(time.Millisecond)
	}
	if err == nil {
		t.Fatal("sends to dead peer kept succeeding")
	}
}

// TestTCPOversizedFramePoisonsPeer feeds a frame whose header claims more
// than MaxFrameSize bytes and asserts the receiver rejects it before
// allocating, poisoning the peer.
func TestTCPOversizedFramePoisonsPeer(t *testing.T) {
	eps := dialMesh(t, 2)

	// Reach under the endpoint to corrupt a header: a Send of a legitimate
	// payload cannot produce one, so write the frame by hand.
	c := eps[0].conns[1]
	c.mu.Lock()
	hdr := make([]byte, tcpHeaderLen)
	hdr[0] = 0x01                                  // tag
	hdr[4], hdr[5], hdr[6], hdr[7] = 0, 0, 0, 0xFF // length 0xFF000000 > MaxFrameSize
	_, werr := c.conn.Write(hdr)
	c.mu.Unlock()
	if werr != nil {
		t.Fatal(werr)
	}

	err := waitErr(t, 5*time.Second, "Recv of oversized frame", func() error {
		_, err := eps[1].Recv(0, Tag(1))
		return err
	})
	pe := asPeerError(t, err, 0)
	if pe.Err == nil {
		t.Fatal("poison cause missing")
	}
}

// TestDialTimeoutMissingHigherPeer: dialing a rank whose listener never
// comes up must fail within the configured deadline, not busy-loop or hang.
func TestDialTimeoutMissingHigherPeer(t *testing.T) {
	addrs := []string{"127.0.0.1:41330", "127.0.0.1:41331"}
	start := time.Now()
	_, err := DialTCPConfig(0, addrs, DialConfig{Timeout: 400 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to absent peer succeeded")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("dial failure took %v, want bounded by the ~400ms deadline", took)
	}
}

// TestDialTimeoutMissingLowerPeer: an endpoint waiting to Accept a
// lower-ranked peer that never dials must also fail by the deadline.
func TestDialTimeoutMissingLowerPeer(t *testing.T) {
	addrs := []string{"127.0.0.1:41340", "127.0.0.1:41341"}
	start := time.Now()
	_, err := DialTCPConfig(1, addrs, DialConfig{Timeout: 400 * time.Millisecond})
	if err == nil {
		t.Fatal("mesh established without the lower-ranked peer")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("accept failure took %v, want bounded by the ~400ms deadline", took)
	}
}

// TestCloseDuringCollectives closes transports while hosts are mid-barrier
// and mid-all-reduce, and asserts every waiter unblocks with an error
// wrapping ErrClosed. Run under -race, this also exercises the shutdown
// path for data races.
func TestCloseDuringCollectives(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			const n = 4
			var eps []Transport
			var closeAll func()
			if transport == "inproc" {
				hub := NewHub(n)
				eps = hub.Endpoints()
				closeAll = hub.Close
			} else {
				tcp := dialMesh(t, n)
				for _, ep := range tcp {
					eps = append(eps, ep)
				}
				closeAll = func() {
					for _, ep := range tcp {
						ep.Close()
					}
				}
			}

			errs := make(chan error, n)
			for h := 0; h < n; h++ {
				go func(tp Transport) {
					// Collectives in a loop: the close lands mid-flight.
					for {
						if err := Barrier(tp); err != nil {
							errs <- err
							return
						}
						if _, err := AllReduceSum(tp, 1); err != nil {
							errs <- err
							return
						}
					}
				}(eps[h])
			}
			time.Sleep(10 * time.Millisecond)
			closeAll()

			deadline := time.After(5 * time.Second)
			for i := 0; i < n; i++ {
				select {
				case err := <-errs:
					// Hosts racing the close may observe either the closed
					// mailbox or (TCP) a severed peer link; both are loud.
					var pe *PeerError
					if !errors.Is(err, ErrClosed) && !errors.As(err, &pe) {
						t.Fatalf("waiter %d: unexpected error %v", i, err)
					}
				case <-deadline:
					t.Fatal("collective still blocked 5s after Close")
				}
			}
		})
	}
}

// TestFaultTransportTransparent: the zero config injects nothing and the
// wrapper behaves exactly like the wrapped transport, collectives included.
func TestFaultTransportTransparent(t *testing.T) {
	const n = 3
	hub := NewHub(n)
	defer hub.Close()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for h := 0; h < n; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			ft := NewFaultTransport(hub.Endpoint(h), FaultConfig{})
			if err := Barrier(ft); err != nil {
				errs[h] = err
				return
			}
			sum, err := AllReduceSum(ft, uint64(h))
			if err != nil {
				errs[h] = err
				return
			}
			if sum != 3 {
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
