package comm

// The split-phase all-reduce: StartAllReduce must put on the wire exactly
// what the blocking gather-and-broadcast always did, whatever the caller
// does between Start and Wait, and a pending collective must unblock with
// the typed error when its transport closes or a peer fails.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingAllReduce is the all-reduce as it was before it was split into
// Start and Wait, kept as the oracle for what goes on the wire.
func blockingAllReduce(t Transport, val uint64, op func(a, b uint64) uint64) (uint64, error) {
	n := t.NumHosts()
	if n == 1 {
		return val, nil
	}
	if t.HostID() == 0 {
		acc := val
		for h := 1; h < n; h++ {
			p, err := t.Recv(h, TagAllReduce)
			if err != nil {
				return 0, err
			}
			acc = op(acc, binary.LittleEndian.Uint64(p))
			PutBuf(p)
		}
		for h := 1; h < n; h++ {
			out := GetBuf(8)
			binary.LittleEndian.PutUint64(out, acc)
			if err := t.Send(h, TagAllReduce, out); err != nil {
				return 0, err
			}
		}
		return acc, nil
	}
	buf := GetBuf(8)
	binary.LittleEndian.PutUint64(buf, val)
	if err := t.Send(0, TagAllReduce, buf); err != nil {
		return 0, err
	}
	p, err := t.Recv(0, TagAllReduce)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(p)
	PutBuf(p)
	return v, nil
}

// digestTransport folds a digest of every sent (src, dst, tag, len,
// payload) into acc with a commutative add, so send order is free but the
// bytes of each message are not. The collectives only use Send.
type digestTransport struct {
	Transport
	acc *atomic.Uint64
}

func (d digestTransport) Send(to int, tag Tag, payload []byte) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(d.HostID()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(to))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(tag))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
	f := fnv.New64a()
	f.Write(hdr[:])
	f.Write(payload)
	d.acc.Add(f.Sum64())
	return d.Transport.Send(to, tag, payload)
}

// testMesh returns n connected endpoints of the named transport, closed
// when the test ends.
func testMesh(t *testing.T, kind string, n int) []Transport {
	t.Helper()
	if kind == "inproc" {
		hub := NewHub(n)
		t.Cleanup(hub.Close)
		return hub.Endpoints()
	}
	eps, _, err := DialLoopbackMesh(n, DialConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]Transport, n)
	for i, ep := range eps {
		ts[i] = ep
		t.Cleanup(func() { ep.Close() })
	}
	return ts
}

// TestStartAllReduceMatchesBlocking: over inproc and TCP at 1–5 hosts, a
// sequence of sum and max collectives with one host busy between Start and
// Wait returns what the blocking oracle returns and sends the same
// messages, byte for byte.
func TestStartAllReduceMatchesBlocking(t *testing.T) {
	const rounds = 4
	for _, kind := range []string{"inproc", "tcp"} {
		for n := 1; n <= 5; n++ {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				run := func(collective func(tp Transport, round int, val uint64, op func(a, b uint64) uint64) (uint64, error)) ([]uint64, uint64) {
					ts := testMesh(t, kind, n)
					var acc atomic.Uint64
					got := make([]uint64, n*rounds)
					errs := make([]error, n)
					var wg sync.WaitGroup
					for h := range n {
						wg.Add(1)
						go func(h int) {
							defer wg.Done()
							tp := digestTransport{ts[h], &acc}
							for r := range rounds {
								op := Sum
								if r%2 == 1 {
									op = Max
								}
								v, err := collective(tp, r, uint64(100*r+h+1), op)
								if err != nil {
									errs[h] = err
									return
								}
								got[h*rounds+r] = v
							}
						}(h)
					}
					wg.Wait()
					if err := errors.Join(errs...); err != nil {
						t.Fatal(err)
					}
					return got, acc.Load()
				}
				want, wantDigest := run(func(tp Transport, _ int, val uint64, op func(a, b uint64) uint64) (uint64, error) {
					return blockingAllReduce(tp, val, op)
				})
				got, gotDigest := run(func(tp Transport, r int, val uint64, op func(a, b uint64) uint64) (uint64, error) {
					p := StartAllReduce(tp, val, op)
					if tp.HostID() == r%n {
						time.Sleep(time.Millisecond) // this round's slow compute
					}
					return p.Wait()
				})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("host %d round %d: %d, blocking form gives %d", i/rounds, i%rounds, got[i], want[i])
					}
				}
				if gotDigest != wantDigest {
					t.Fatalf("wire digest %#x, blocking form sends %#x", gotDigest, wantDigest)
				}
			})
		}
	}
}

// TestPendingAllReduceUnblocks: a collective pending on the root (waiting
// to gather) or on a non-root (waiting for the verdict) returns ErrClosed
// when its transport closes and a *PeerError naming the peer when that peer
// is failed — and leaves no goroutine behind.
func TestPendingAllReduceUnblocks(t *testing.T) {
	for _, c := range []struct {
		name  string
		host  int
		fail  bool
		check func(err error) bool
	}{
		{"root/close", 0, false, func(err error) bool { return errors.Is(err, ErrClosed) }},
		{"root/failpeer", 0, true, func(err error) bool {
			var pe *PeerError
			return errors.As(err, &pe) && pe.Host == 1
		}},
		{"nonroot/close", 1, false, func(err error) bool { return errors.Is(err, ErrClosed) }},
		{"nonroot/failpeer", 1, true, func(err error) bool {
			var pe *PeerError
			return errors.As(err, &pe) && pe.Host == 0
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			hub := NewHub(3)
			defer hub.Close()
			tp := hub.Endpoint(c.host)
			p := StartAllReduce(tp, 1, Sum) // no other host ever posts
			done := make(chan error, 1)
			go func() {
				_, err := p.Wait()
				done <- err
			}()
			time.Sleep(5 * time.Millisecond)
			if c.fail {
				tp.(PeerFailer).FailPeer(1-c.host, errors.New("declared dead"))
			} else {
				hub.Close()
			}
			select {
			case err := <-done:
				if !c.check(err) {
					t.Fatalf("Wait returned %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Wait still blocked")
			}
			hub.Close()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Wait, %d before Start", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestShortOperandIsPeerError: an all-reduce operand that is not 8 bytes
// makes the receiver's Wait return a *PeerError naming the sender — no
// panic — and its buffer still goes back to the pool.
func TestShortOperandIsPeerError(t *testing.T) {
	SetPoolAccounting(true)
	defer SetPoolAccounting(false)
	hub := NewHub(2)
	defer hub.Close()
	if err := hub.Endpoint(1).Send(0, TagAllReduce, GetBuf(3)); err != nil {
		t.Fatal(err)
	}
	_, err := AllReduceSum(hub.Endpoint(0), 1)
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Host != 1 {
		t.Fatalf("AllReduceSum = %v, want a *PeerError naming host 1", err)
	}
	if gets, puts := PoolCounters(); gets != puts {
		t.Fatalf("buffer pool: %d gets, %d puts", gets, puts)
	}
}

// FuzzOperand: no payload panics decodeOperand, and an accepted one is the
// 8 bytes sendOperand writes for its value.
func FuzzOperand(f *testing.F) {
	f.Add(binary.LittleEndian.AppendUint64(nil, 42))
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		v, err := decodeOperand(p)
		if err != nil {
			return
		}
		if got := binary.LittleEndian.AppendUint64(nil, v); string(got) != string(p) {
			t.Fatalf("decoded %d from %x, which encodes as %x", v, p, got)
		}
	})
}
