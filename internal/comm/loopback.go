package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// DialLoopbackMesh brings up all n endpoints of a TCP communicator on
// 127.0.0.1 — for tests, examples and single-machine runs — and returns them
// with their listen addresses (which a rank rejoining through RejoinTCP
// dials again). A mesh needs every listen address before any host starts, so
// the ports are the kernel's choice, not the caller's: listen on port 0, read
// the address back, release it, dial. A port named in advance inside the
// ephemeral range can be another connection's source port at that moment,
// and the dial then fails after the whole timeout. Another process can still
// take a port between the release and the dial, hence up to three attempts.
func DialLoopbackMesh(n int, cfg DialConfig) ([]*TCPEndpoint, []string, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		addrs := make([]string, n)
		for i := range addrs {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				return nil, nil, fmt.Errorf("comm: loopback mesh: %w", lerr)
			}
			addrs[i] = ln.Addr().String()
			ln.Close() // nothing was accepted; the address is all that was wanted
		}
		eps := make([]*TCPEndpoint, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				eps[i], errs[i] = DialTCPConfig(i, addrs, cfg)
			}(i)
		}
		wg.Wait()
		if err = errors.Join(errs...); err == nil {
			return eps, addrs, nil
		}
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}
	return nil, nil, fmt.Errorf("comm: loopback mesh: %w", err)
}
