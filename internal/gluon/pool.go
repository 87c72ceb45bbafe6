package gluon

// Scratch pools for the sync hot path. Steady-state syncs reuse, per
// worker: the position/sent index slices and extracted-value slice built
// during encoding, the resolved local-ID and decoded-value slices of the
// receive loop, and (via comm.GetBuf/PutBuf) every payload buffer. Pools
// are package-level because Gluon instances of many hosts share one process
// in the in-memory cluster.

import "sync"

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

// peerScratch holds the per-sync peer work lists: the send and receive
// peer sets and the mutable remaining-peer set RecvAny consumes. lids and
// vals are where the receive loop decodes the one message it is applying:
// the local IDs its positions resolve to and its values as a typed slice.
type peerScratch struct {
	send, recv, rem []int
	errCh           chan error
	lids            []uint32
	vals            any
}

var peerScratchPool = sync.Pool{New: func() any { return new(peerScratch) }}

func getPeerScratch() *peerScratch   { return peerScratchPool.Get().(*peerScratch) }
func putPeerScratch(ps *peerScratch) { peerScratchPool.Put(ps) }

// errChan returns the scratch's reusable one-slot error channel for the
// send-side goroutine join. It is empty whenever the scratch is pooled: the
// success path always drains it, and error paths leak the scratch instead
// of pooling it.
func (ps *peerScratch) errChan() chan error {
	if ps.errCh == nil {
		ps.errCh = make(chan error, 1)
	}
	return ps.errCh
}
