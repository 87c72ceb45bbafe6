package comm

import (
	"fmt"
	"sync"
	"testing"
)

func TestInprocSendRecv(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	if err := a.Send(1, TagUser, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(0, TagUser)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestInprocFIFOPerTag(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	for i := 0; i < 100; i++ {
		if err := a.Send(1, TagUser, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := b.Recv(0, TagUser)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, got[0])
		}
	}
}

func TestInprocTagDemux(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	a.Send(1, TagUser+1, []byte("one"))
	a.Send(1, TagUser+2, []byte("two"))
	// Receive in reverse tag order.
	got2, _ := b.Recv(0, TagUser+2)
	got1, _ := b.Recv(0, TagUser+1)
	if string(got1) != "one" || string(got2) != "two" {
		t.Fatalf("demux wrong: %q %q", got1, got2)
	}
}

func TestInprocSelfSend(t *testing.T) {
	hub := NewHub(1)
	defer hub.Close()
	e := hub.Endpoint(0)
	if err := e.Send(0, TagUser, []byte("self")); err != nil {
		t.Fatal(err)
	}
	got, err := e.Recv(0, TagUser)
	if err != nil || string(got) != "self" {
		t.Fatalf("self-send: %q %v", got, err)
	}
}

func TestInprocSendOutOfRange(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	if err := hub.Endpoint(0).Send(5, TagUser, nil); err == nil {
		t.Fatal("send out of range accepted")
	}
}

func TestInprocCloseUnblocksRecv(t *testing.T) {
	hub := NewHub(2)
	done := make(chan error, 1)
	go func() {
		_, err := hub.Endpoint(0).Recv(1, TagUser)
		done <- err
	}()
	hub.Close()
	if err := <-done; err == nil {
		t.Fatal("Recv returned nil after close")
	}
}

func TestStatsCounting(t *testing.T) {
	hub := NewHub(2)
	defer hub.Close()
	a, b := hub.Endpoint(0), hub.Endpoint(1)
	a.Send(1, TagUser, make([]byte, 10))
	a.Send(1, TagUser, make([]byte, 20))
	b.Recv(0, TagUser)
	b.Recv(0, TagUser)
	as, bs := a.Stats(), b.Stats()
	if as.MessagesSent != 2 || as.BytesSent != 30 {
		t.Fatalf("sender stats %+v", as)
	}
	if bs.MessagesRecvd != 2 || bs.BytesRecvd != 30 {
		t.Fatalf("receiver stats %+v", bs)
	}
}

func runCollective(t *testing.T, n int, fn func(tp Transport) error) {
	t.Helper()
	hub := NewHub(n)
	defer hub.Close()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for h := 0; h < n; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			errs[h] = fn(hub.Endpoint(h))
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var mu sync.Mutex
			phase := make([]int, n)
			runCollective(t, n, func(tp Transport) error {
				for round := 0; round < 5; round++ {
					mu.Lock()
					phase[tp.HostID()] = round
					// No host may be more than one barrier ahead.
					for h := 0; h < n; h++ {
						if phase[h] < round-1 || phase[h] > round+1 {
							mu.Unlock()
							return fmt.Errorf("round %d: host %d at phase %d", round, h, phase[h])
						}
					}
					mu.Unlock()
					if err := Barrier(tp); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		runCollective(t, n, func(tp Transport) error {
			got, err := AllReduceSum(tp, uint64(tp.HostID()+1))
			if err != nil {
				return err
			}
			want := uint64(n * (n + 1) / 2)
			if got != want {
				return fmt.Errorf("sum = %d, want %d", got, want)
			}
			return nil
		})
	}
}

func TestAllReduceMax(t *testing.T) {
	runCollective(t, 6, func(tp Transport) error {
		got, err := AllReduceMax(tp, uint64(tp.HostID()*10))
		if err != nil {
			return err
		}
		if got != 50 {
			return fmt.Errorf("max = %d, want 50", got)
		}
		return nil
	})
}

func TestAllReduceRepeated(t *testing.T) {
	// Consecutive collectives must not cross-contaminate.
	runCollective(t, 4, func(tp Transport) error {
		for round := uint64(0); round < 20; round++ {
			got, err := AllReduceSum(tp, round)
			if err != nil {
				return err
			}
			if got != 4*round {
				return fmt.Errorf("round %d: sum = %d", round, got)
			}
		}
		return nil
	})
}

func TestConcurrentSenders(t *testing.T) {
	hub := NewHub(3)
	defer hub.Close()
	var wg sync.WaitGroup
	const msgs = 200
	for src := 0; src < 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				hub.Endpoint(src).Send(2, TagUser, []byte{byte(src), byte(i)})
			}
		}(src)
	}
	recv := hub.Endpoint(2)
	for src := 0; src < 2; src++ {
		for i := 0; i < msgs; i++ {
			got, err := recv.Recv(src, TagUser)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(src) || got[1] != byte(i) {
				t.Fatalf("from %d msg %d: got %v", src, i, got)
			}
		}
	}
	wg.Wait()
}

func BenchmarkInprocRoundTrip(b *testing.B) {
	hub := NewHub(2)
	defer hub.Close()
	a, c := hub.Endpoint(0), hub.Endpoint(1)
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(1, TagUser, payload)
		c.Recv(0, TagUser)
	}
}

func BenchmarkBarrier8(b *testing.B) {
	hub := NewHub(8)
	defer hub.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for h := 0; h < 8; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				Barrier(hub.Endpoint(h))
			}(h)
		}
		wg.Wait()
	}
}
