package comm

import (
	"fmt"
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
