package gluon

// Optional message compression (§4.2: "Other compression or encoding
// techniques could be used ... as long as they are deterministic"). A
// compressed message wraps a normal encoded payload:
//
//	[modeCompressed][uncompressed length uint32][deflate stream]
//
// Compression runs after encoding-mode selection, so the adaptive
// dense/bitvec/indices choice still minimizes the pre-compression size.
//
// The wire path is zero-copy: the DEFLATE stream is produced directly in
// the pooled buffer that goes to the transport, and the 5-byte wrapper
// header travels as the separate header slice of Transport.SendVec (the
// caller-owned half of the vectored-send contract), so neither the raw nor
// the compressed payload is ever copied to glue the wrapper on.

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"gluon/internal/comm"
	"gluon/internal/trace"
)

// modeCompressed wraps any other mode's payload in a deflate stream.
const modeCompressed byte = 5

// compHdrLen is the compressed-message wrapper header:
// [modeCompressed][uncompressed length uint32].
const compHdrLen = 5

// CompressPolicy decides, per message, whether the DEFLATE wrapper should
// run, and receives the observed outcome of every candidate so it can
// adapt. Options.Compress holds the one policy of an instance (nil = no
// compression). Implementations must be safe for concurrent use: parallel
// encode workers consult one shared policy, and several fields interleave.
//
// CompressAbove is the static policy. The autotune package provides the
// adaptive one (autotune.NewCompressTuner), which probes each field, tracks
// the observed compression ratio and encode-side cost, and skips fields
// that stopped paying for themselves — re-probing periodically so a field
// whose value distribution shifts (frontier collapse, convergence) is
// re-evaluated.
type CompressPolicy interface {
	// ShouldCompress reports whether a size-byte encoded payload of field
	// fieldID should attempt the DEFLATE wrapper.
	ShouldCompress(fieldID uint32, size int) bool
	// Observe feeds back the outcome of one send: rawBytes is the encoded
	// payload size, wireBytes the bytes actually shipped (equal to rawBytes
	// when the message went uncompressed), compressNs the CPU time spent
	// compressing (0 when the attempt was skipped), and shipped whether the
	// compressed form went to the wire.
	Observe(fieldID uint32, rawBytes, wireBytes int, compressNs int64, shipped bool)
}

// CompressAbove is the static CompressPolicy: every message of at least
// that many bytes attempts compression, whatever earlier attempts yielded.
type CompressAbove int

// ShouldCompress implements CompressPolicy.
func (n CompressAbove) ShouldCompress(_ uint32, size int) bool { return size >= int(n) }

// Observe implements CompressPolicy; a fixed threshold has nothing to learn.
func (CompressAbove) Observe(uint32, int, int, int64, bool) {}

// maybeCompress wraps payload if the options ask for it and it helps. On
// success the returned hdr is the 5-byte compressed wrapper (stored in sc,
// caller-owned per the SendVec contract), body is a fresh pooled buffer
// holding only the deflate stream, and the input payload has been released;
// the caller ships them with Transport.SendVec(to, tag, hdr, body). When
// compression is off, skipped, or unhelpful, hdr is nil and body is the
// untouched input payload for a plain Send. The outcome lands in ms: the
// bytes saved leave the message's split (metadata first, since values and
// metadata are interleaved post-compression), and a candidate that went
// out raw is tagged skipped.
func (g *Gluon) maybeCompress(fieldID uint32, payload []byte, sc *encodeScratch, ms *msgStats) (hdr, body []byte) {
	pol := g.Opt.Compress
	if pol == nil || !g.Opt.TemporalInvariance {
		return nil, payload
	}
	ms.comp = trace.CompSkipped // until the compressed form ships
	raw := len(payload)
	if !pol.ShouldCompress(fieldID, raw) {
		pol.Observe(fieldID, raw, raw, 0, false)
		return nil, payload
	}
	t0 := time.Now()
	// The deflate stream must beat raw by more than the wrapper header to be
	// worth shipping; bounding the output buffer at that margin makes an
	// incompressible message fail the Write instead of finishing a useless
	// stream.
	bound := raw - compHdrLen - 1
	if bound <= 0 {
		pol.Observe(fieldID, raw, raw, time.Since(t0).Nanoseconds(), false)
		return nil, payload
	}
	c := compressorPool.Get().(*compressor)
	defer compressorPool.Put(c)
	out := comm.GetBuf(bound)
	c.out = poolBuf{buf: out}
	if c.w == nil {
		// flate.BestSpeed: messages are latency-sensitive; level 1 already
		// captures most of the redundancy in packed label arrays.
		w, err := flate.NewWriter(&c.out, flate.BestSpeed)
		if err != nil {
			comm.PutBuf(out)
			return nil, payload // cannot happen with a valid level; fail open
		}
		c.w = w
	} else {
		c.w.Reset(&c.out)
	}
	_, err := c.w.Write(payload)
	if err == nil {
		err = c.w.Close()
	}
	if err != nil {
		// Incompressible (bound overflow) or a writer fault: ship raw.
		comm.PutBuf(out)
		pol.Observe(fieldID, raw, raw, time.Since(t0).Nanoseconds(), false)
		return nil, payload
	}
	n := c.out.n
	wire := compHdrLen + n
	ms.comp, ms.saved = trace.CompShipped, uint64(raw-wire)
	// The wire carries fewer bytes than the encoder accounted; correct the
	// split by shrinking metadata first, then values.
	fromMeta := min(ms.meta, ms.saved)
	ms.meta -= fromMeta
	ms.value -= min(ms.value, ms.saved-fromMeta)
	sc.compHdr[0] = modeCompressed
	binary.LittleEndian.PutUint32(sc.compHdr[1:], uint32(raw))
	comm.PutBuf(payload)
	pol.Observe(fieldID, raw, wire, time.Since(t0).Nanoseconds(), true)
	return sc.compHdr[:], out[:n]
}

// maybeDecompress unwraps a compressed payload; other payloads pass
// through. pooled reports whether out is a fresh pool buffer the caller
// must release with comm.PutBuf (the input payload is never consumed).
func maybeDecompress(payload []byte) (out []byte, pooled bool, err error) {
	if len(payload) == 0 || payload[0] != modeCompressed {
		return payload, false, nil
	}
	if len(payload) < compHdrLen {
		return nil, false, fmt.Errorf("short compressed message")
	}
	want := binary.LittleEndian.Uint32(payload[1:])
	// DEFLATE expands at most 1032:1, so a larger claim is corrupt — refuse
	// it before allocating the output it asks for.
	if uint64(want) > 1032*uint64(len(payload)) {
		return nil, false, fmt.Errorf("implausible decompressed size %d for a %d-byte message", want, len(payload))
	}
	inf := inflatorPool.Get().(*inflator)
	defer inflatorPool.Put(inf)
	inf.br.Reset(payload[compHdrLen:])
	if inf.fr == nil {
		inf.fr = flate.NewReader(&inf.br)
	} else if err := inf.fr.(flate.Resetter).Reset(&inf.br, nil); err != nil {
		return nil, false, fmt.Errorf("decompress: %w", err)
	}
	out = comm.GetBuf(int(want))
	if _, err := io.ReadFull(inf.fr, out); err != nil {
		comm.PutBuf(out)
		return nil, false, fmt.Errorf("decompress: %w", err)
	}
	return out, true, nil
}
