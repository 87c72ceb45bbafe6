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
// the ports are the kernel's choice, not the caller's: each host's listener
// is bound to port 0 first, and the endpoint is built on that same
// listener, so no port is ever released and re-bound. (A port named in
// advance inside the ephemeral range can be another connection's source
// port at that moment, and the dial then fails after the whole timeout.)
func DialLoopbackMesh(n int, cfg DialConfig) ([]*TCPEndpoint, []string, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, nil, fmt.Errorf("comm: loopback mesh: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	eps := make([]*TCPEndpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = openTCP(i, addrs, lns[i], cfg, false)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
		return nil, nil, fmt.Errorf("comm: loopback mesh: %w", err)
	}
	return eps, addrs, nil
}
