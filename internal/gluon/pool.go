package gluon

// Scratch pools for the sync hot path. Steady-state syncs reuse, per
// worker: the position/sent index slices and extracted-value slice built
// during encoding, the resolved local-ID and decoded-value slices of the
// receive loop, and (via comm.GetBuf/PutBuf) every payload buffer. Pools
// are package-level because Gluon instances of many hosts share one process
// in the in-memory cluster.

import (
	"sync"
	"sync/atomic"
)

// encodeScratch holds one encoder's reusable buffers. A worker checks one
// out for its whole chunk of peers; the slices grow to the largest message
// encoded and stay that size.
type encodeScratch struct {
	positions []uint32
	sent      []uint32
	// vals caches the extracted-value slice (see scratchVals).
	vals any
}

var encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

func getEncodeScratch() *encodeScratch   { return encodeScratchPool.Get().(*encodeScratch) }
func putEncodeScratch(sc *encodeScratch) { encodeScratchPool.Put(sc) }

// scratchVals returns a length-n value slice backed by *cache, allocating
// only when the cached slice is missing, too small, or of a different value
// type. The cache is typed any because the value type is a per-call generic
// parameter; a differently-typed field replaces it.
func scratchVals[V Value](cache *any, n int) []V {
	if vs, ok := (*cache).([]V); ok && cap(vs) >= n {
		return vs[:n]
	}
	vs := make([]V, n, max(n, 256))
	*cache = vs
	return vs
}

// peerScratch holds one sync's work lists: the peer lists (reduce send
// and receive, broadcast send and receive, and the broadcast peers still
// to be heard from), the per-peer slice counters of the two senders and of
// the receive loop, the senders' error channel, and the final-master prefix
// the receive loop releases to the broadcast sender. lids and vals are
// where the receive loop decodes the one message it is applying: the local
// IDs its positions resolve to and its values as a typed slice.
type peerScratch struct {
	lists [5][]int
	cnt   [3][]int
	errCh chan error
	// final is the prefix of masters released to the broadcast sender, -1
	// once the sync is abandoned; wake tells the sender it moved.
	final atomic.Int64
	wake  chan struct{}
	lids  []uint32
	vals  any
}

var peerScratchPool = sync.Pool{New: func() any {
	return &peerScratch{errCh: make(chan error, 2), wake: make(chan struct{}, 1)}
}}

// getPeerScratch returns a scratch with no masters released and no wake-up
// pending. Its error channel is empty: the success path always drains it,
// and error paths leak the scratch instead of pooling it.
func getPeerScratch() *peerScratch {
	ps := peerScratchPool.Get().(*peerScratch)
	ps.final.Store(0)
	select {
	case <-ps.wake:
	default:
	}
	return ps
}

func putPeerScratch(ps *peerScratch) { peerScratchPool.Put(ps) }

// publish sets the released prefix and wakes the broadcast sender without
// ever blocking: one pending wake-up covers any number of releases.
func (ps *peerScratch) publish(final int64) {
	ps.final.Store(final)
	select {
	case ps.wake <- struct{}{}:
	default:
	}
}

// counters returns counter set i, zeroed at length n.
func (ps *peerScratch) counters(i, n int) []int {
	if cap(ps.cnt[i]) < n {
		ps.cnt[i] = make([]int, n)
	}
	c := ps.cnt[i][:n]
	clear(c)
	return c
}
