package gluon

// Scratch pools for the sync hot path. Steady-state syncs reuse, per
// worker: the position/sent index slices and extracted-value slice built
// during encoding, the resolved local-ID and decoded-value slices of the
// receive loop, the DEFLATE compressor and its staging buffer, the DEFLATE
// reader used for decompression, and (via comm.GetBuf/PutBuf) every payload
// buffer. Pools are package-level because Gluon instances of many
// hosts share one process in the in-memory cluster.

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"sync"
)

// encodeScratch holds one encoder's reusable buffers. A worker checks one
// out for its whole chunk of peers; the slices grow to the largest message
// encoded and stay that size.
type encodeScratch struct {
	positions []uint32
	sent      []uint32
	// vals caches the extracted-value slice (see scratchVals).
	vals any
	// compHdr is the 5-byte compressed-message header
	// ([modeCompressed][uncompressed length]) maybeCompress hands to
	// Transport.SendVec. It lives in the scratch — not the compressor, which
	// is pooled again before the send happens — because the header must stay
	// valid until SendVec consumes it.
	compHdr [compHdrLen]byte
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
// peer sets, the mutable remaining-peer set RecvAny consumes, and the
// per-host staging slots the reduce path parks early arrivals in. A staged
// entry is the raw (decompressed if needed) wire message of an out-of-order
// arrival, kept in its pooled buffer until its fold turn. lids and vals are
// where the receive loop decodes the one message it is applying: the local
// IDs its positions resolve to and its values as a typed slice.
type peerScratch struct {
	send, recv, rem []int
	stages          [][]byte
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

// hostStages returns the per-host staging slot array, nil-cleared, sized to
// the host count.
func (ps *peerScratch) hostStages(hosts int) [][]byte {
	if cap(ps.stages) < hosts {
		ps.stages = make([][]byte, hosts)
	}
	ps.stages = ps.stages[:hosts]
	for i := range ps.stages {
		ps.stages[i] = nil
	}
	return ps.stages
}

// poolBuf is a bounded io.Writer over a caller-provided buffer: the DEFLATE
// writer streams straight into the pooled buffer that will go to the
// transport as the wire payload, so a compressed message is never copied
// between a staging area and the outgoing buffer. A write that would exceed
// the bound (len(buf)) fails with errIncompressible — the bound is the raw
// payload size, so overflow means compression is not paying for itself and
// the caller ships the raw payload instead.
type poolBuf struct {
	buf []byte // the future wire payload; len is the output bound
	n   int    // bytes written
}

var errIncompressible = errors.New("gluon: compressed output not smaller than input")

func (p *poolBuf) Write(q []byte) (int, error) {
	if p.n+len(q) > len(p.buf) {
		return 0, errIncompressible
	}
	copy(p.buf[p.n:], q)
	p.n += len(q)
	return len(q), nil
}

// compressor bundles a reusable DEFLATE writer with the bounded-output
// adapter it writes through.
type compressor struct {
	out poolBuf
	w   *flate.Writer
}

var compressorPool = sync.Pool{New: func() any { return new(compressor) }}

// inflator bundles a reusable DEFLATE reader with the bytes.Reader it
// draws from.
type inflator struct {
	br bytes.Reader
	fr io.ReadCloser
}

var inflatorPool = sync.Pool{New: func() any { return new(inflator) }}
