package gluon

import (
	"fmt"
	"math/bits"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/par"
	"gluon/internal/trace"
)

// Location says at which edge endpoint a field is written or read by the
// operator, the information the sync call carries in the paper's API
// (WriteAtDestination / ReadAtSource in Figure 4).
type Location uint8

// Endpoint locations.
const (
	// AtDestination: the operator touches the field at edge destinations
	// (push-style writes, pull-style writes to the active node).
	AtDestination Location = iota
	// AtSource: the operator touches the field at edge sources.
	AtSource
	// Anywhere: no structural restriction can be assumed.
	Anywhere
)

// ReduceSpec is the reduce synchronization structure of §3.3, in the
// paper's bulk form: every call covers one whole message, lids[i] being the
// local proxy that vals[i] or dst[i] belongs to, so a field pays one dynamic
// call per message and a typed loop per value. Mirrors call Extract to read
// partial values into dst (len(dst) == len(lids)); masters call Reduce to
// fold received values in; mirrors call Reset to return to the reduction
// identity after their values are shipped. No call may keep or modify lids,
// which can alias a memoized order.
//
// Reduce marks every proxy whose value it changed in changed, which is nil
// when nobody tracks updates. The encoders clear mirror bits of the same
// bitset concurrently and the word at the master/mirror boundary is shared,
// so marks must be atomic word updates; bitset.Marker batches them to one
// per run of lids sharing a word, and every order ascends.
//
// Contract required by the dense encoding: Extract on a proxy that was not
// updated this round must yield a value that is a no-op under Reduce
// (i.e. the reduction identity, or an already-incorporated value of an
// idempotent reduction such as min).
//
// Messages for different peers are encoded by parallel workers while the
// receive loop applies arrivals, so Extract and Reset must be safe to call
// concurrently with each other and with Reduce on disjoint lids (element
// reads and writes of a label array qualify: the per-peer mirror sets are
// disjoint from each other and from the masters Reduce touches).
type ReduceSpec[V Value] interface {
	Extract(lids []uint32, dst []V)
	Reduce(lids []uint32, vals []V, changed *bitset.Bitset)
	Reset(lids []uint32)
}

// BroadcastSpec is the broadcast synchronization structure of §3.3, in the
// same one-call-per-message form. Masters call Extract; mirrors call Set
// with the canonical values. Extract must be safe to call concurrently on
// the same lids (parallel workers encode overlapping master orders) and
// with Set on disjoint ones; pure reads qualify.
type BroadcastSpec[V Value] interface {
	Extract(lids []uint32, dst []V)
	Set(lids []uint32, vals []V)
}

// extractor is the read half that both kinds of spec share.
type extractor[V Value] interface {
	Extract(lids []uint32, dst []V)
}

// Field describes one synchronizable node field: where the operator writes
// and reads it, and how to move its values. It corresponds to one
// sync<WriteLoc, ReadLoc, Reduce, Broadcast>() instantiation in the paper.
type Field[V Value] struct {
	// ID must be unique among concurrently synchronized fields; it
	// namespaces message tags.
	ID uint32
	// Name is used in diagnostics only.
	Name string
	// Write is where the operator writes the field; Read where it reads it.
	Write, Read Location
	Reduce      ReduceSpec[V]
	Broadcast   BroadcastSpec[V]
}

// Message encoding modes (§4.2).
const (
	modeEmpty   byte = 0 // no updates
	modeDense   byte = 1 // values for every proxy in the memoized order
	modeBitvec  byte = 2 // bit-vector over the order + packed updated values
	modeIndices byte = 3 // index list + packed updated values
	modeGIDs    byte = 4 // (global-ID, value) pairs; the pre-Gluon wire format
)

func (g *Gluon) reduceTag(fieldID uint32) comm.Tag {
	return comm.TagUser + comm.Tag(fieldID)*2
}

func (g *Gluon) broadcastTag(fieldID uint32) comm.Tag {
	return comm.TagUser + comm.Tag(fieldID)*2 + 1
}

// Sync synchronizes one field across all hosts: a reduce phase (mirror
// values folded into masters) followed by a broadcast phase (canonical
// values pushed back to mirrors), each restricted to the structurally
// necessary proxy subsets. For OEC partitions of push-style fields the
// broadcast phase is empty; for IEC the reduce phase is empty; CVC uses
// proper subsets of mirrors in both; unconstrained cuts use all mirrors.
//
// updated tracks which local proxies changed this round; Sync consumes
// mirror bits it ships (resetting those mirrors), adds bits for masters
// changed by reduce and mirrors changed by broadcast, so that on return
// updated holds exactly the proxies whose values are new — the engine's
// next frontier. A nil updated means "assume everything changed".
//
// Both phases are pipelined: per-peer messages are encoded by parallel
// workers (Options.SyncWorkers) into pooled buffers while the receive loop
// applies what has arrived — broadcast in arrival order, reduce in ascending
// sender rank. Neither changes what is sent: per-peer payload bytes and
// encoding-mode choices are identical to a serial, fixed-order sync.
func Sync[V Value](g *Gluon, f Field[V], updated *bitset.Bitset) error {
	if f.Reduce != nil {
		if err := SyncReduce(g, f, updated); err != nil {
			return err
		}
	}
	if f.Broadcast != nil {
		if err := SyncBroadcast(g, f, updated); err != nil {
			return err
		}
	}
	return nil
}

// phase is what differs between the two halves of a sync (§3.3): which
// memoized orders are sent and received into, and which spec values are
// read out of and meet on arrival. runPhase is everything else.
//
// It travels by value into runPhase's goroutine closures; keeping it under
// the compiler's 128-byte limit for by-value capture (orders by pointer)
// is what keeps a sync from allocating its descriptor.
type phase[V Value] struct {
	field      uint32   // Field.ID, for spans
	name       string   // Field.Name, for spans and errors
	word       string   // "reduce" / "broadcast", for errors
	tag        comm.Tag // namespaces this field and direction on the wire
	send, recv *orderSet
	// Exactly one of reduce and set is non-nil. Reduce also returns each
	// mirror whose value was shipped to the reduction identity; its
	// "changed" bit migrates to the master with the value.
	reduce ReduceSpec[V]
	set    BroadcastSpec[V]
	// ordered makes arrivals fold in ascending host order instead of on
	// arrival. Reduce needs it: a master receives contributions from several
	// peers, and order-sensitive reductions (floating-point sums) must fold
	// them in the same sequence every run to keep later rounds' payload
	// bytes deterministic. A broadcast value has exactly one sender — the
	// owner — so arrival order cannot show.
	ordered bool
	applied trace.Phase // PhaseFold / PhaseApply: the span of one applied message
}

// src is the spec sent values are read from.
func (ph phase[V]) src() extractor[V] {
	if ph.reduce != nil {
		return ph.reduce
	}
	return ph.set
}

// apply meets one decoded message with the local state.
func (ph phase[V]) apply(lids []uint32, vals []V, updated *bitset.Bitset) {
	if ph.reduce != nil {
		ph.reduce.Reduce(lids, vals, updated)
		return
	}
	ph.set.Set(lids, vals)
	// Delivery activates the mirror even when the value is unchanged: the
	// mirror that originated this round's best value has the value already,
	// but its outgoing edges have not been processed with it yet (matters
	// for unconstrained vertex cuts, where a mirror can have both incoming
	// and outgoing edges).
	if updated != nil {
		updated.SetMany(lids)
	}
}

// SyncReduce runs only the reduce pattern for f.
func SyncReduce[V Value](g *Gluon, f Field[V], updated *bitset.Bitset) error {
	send, recv := g.peersForReduce(f.Write, g.Opt.StructuralInvariants)
	return runPhase(g, updated, phase[V]{
		field: f.ID, name: f.Name, word: "reduce", tag: g.reduceTag(f.ID),
		send: send, recv: recv, reduce: f.Reduce,
		ordered: true, applied: trace.PhaseFold,
	})
}

// SyncBroadcast runs only the broadcast pattern for f.
func SyncBroadcast[V Value](g *Gluon, f Field[V], updated *bitset.Bitset) error {
	return syncBroadcast(g, f, updated, g.Opt.StructuralInvariants)
}

// BroadcastAll pushes masters' canonical values to every mirror regardless
// of structural pattern or update tracking: a full reconciliation, used to
// finalize results before output or verification.
func BroadcastAll[V Value](g *Gluon, f Field[V]) error {
	return syncBroadcast(g, f, nil, false)
}

// syncBroadcast builds the broadcast phase with the structural-invariant
// choice made explicit, so BroadcastAll can run unconstrained without
// mutating shared options.
func syncBroadcast[V Value](g *Gluon, f Field[V], updated *bitset.Bitset, structural bool) error {
	send, recv := g.peersForBroadcast(f.Read, structural)
	return runPhase(g, updated, phase[V]{
		field: f.ID, name: f.Name, word: "broadcast", tag: g.broadcastTag(f.ID),
		send: send, recv: recv, set: f.Broadcast,
		applied: trace.PhaseApply,
	})
}

// runPhase is the one sync pipeline: peer lists → parallel encode → send →
// receive → decode → apply, for whichever direction ph describes.
func runPhase[V Value](g *Gluon, updated *bitset.Bitset, ph phase[V]) error {
	g.syncBegin()
	rec := g.rec
	tr := rec.Enabled()
	var syncT0 int64
	if tr {
		syncT0 = rec.Now()
	}
	defer func() {
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseSync, Start: syncT0, Dur: rec.Now() - syncT0,
				Field: ph.field, Peer: -1, Detail: ph.name})
		}
		g.syncEnd()
	}()

	ps := getPeerScratch()
	sendPeers, recvPeers := ps.peerLists(g.NumHosts(), g.HostID(), ph.send, ph.recv)

	// Encoding fans out across workers. Reduce sends per-peer mirror sets,
	// which are disjoint, so encode and Reset for different peers touch
	// disjoint lids, and updated is read and cleared a word at a time,
	// atomically; broadcast's master orders overlap, but it only reads them.
	// Sends run off the receive path so that large bidirectional exchanges
	// cannot deadlock on transport buffering.
	sendErr := ps.errChan()
	g.sendWG.Add(1)
	go func() {
		defer g.sendWG.Done()
		sendErr <- par.RangeWorkers(len(sendPeers), g.Opt.SyncWorkers, func(w, lo, hi int) error {
			defer trace.LabelPhase(trace.PhaseEncode)()
			sc := getEncodeScratch()
			defer putEncodeScratch(sc)
			var st Stats
			defer g.foldStats(&st)
			lane := int32(1 + w)
			src := ph.src()
			for _, h := range sendPeers[lo:hi] {
				var t0 int64
				if tr {
					t0 = rec.Now()
				}
				payload, sent, ms := encodeMsg(g, ph.send.lists[h], ph.send.masks[h], updated, src, sc)
				st.addMsg(&ms)
				if tr {
					rec.Emit(trace.Event{Phase: trace.PhaseEncode, Start: t0, Dur: rec.Now() - t0,
						Peer: int32(h), Field: ph.field, Lane: lane, Mode: int8(ms.mode),
						Value: ms.value, Meta: ms.meta, GID: ms.gid})
				}
				if ph.reduce != nil {
					// What was shipped is every updated member of the order,
					// so consuming the bits clears the whole order.
					ph.reduce.Reset(sent)
					if updated != nil {
						ph.send.masks[h].ClearIn(updated)
					}
				}
				if tr {
					t0 = rec.Now()
				}
				if err := g.T.Send(h, ph.tag, payload); err != nil {
					return fmt.Errorf("gluon: %s %s to host %d: %w", ph.word, ph.name, h, err)
				}
				if tr {
					rec.Emit(trace.Event{Phase: trace.PhaseSend, Start: t0, Dur: rec.Now() - t0,
						Peer: int32(h), Field: ph.field, Lane: lane})
				}
			}
			return nil
		})
	}()

	// A broadcast applies messages in arrival order; an ordered phase asks
	// for them one sender at a time, in ascending rank. Receiving in order
	// loses nothing to waiting: an early arrival sits in the transport's
	// per-(sender, tag) mailbox, which is the queue, until its turn. Each
	// message is decoded out of its receive buffer into the scratch's (lids,
	// values) pair — checked as a whole first, so a malformed message applies
	// nothing — and handed to the spec in one call: the copy is a sequential
	// pass over bytes already in cache, and it buys the spec a typed loop
	// instead of a call chain per value.
	remaining := append(ps.rem[:0], recvPeers...)
	ps.rem = remaining
	defer trace.LabelPhase(ph.applied)()
	for len(remaining) > 0 {
		from := remaining
		if ph.ordered {
			from = remaining[:1] // recvPeers ascends and removePeer keeps order
		}
		var t0 int64
		if tr {
			t0 = rec.Now()
		}
		// The live-phase flips cost two atomic stores per message (nil-safe,
		// alloc-free); they let the watchdog tell a host blocked waiting on a
		// peer (a victim) from one still producing (a suspect).
		rec.SetLivePhase(trace.PhaseRecvWait)
		h, payload, err := g.T.RecvAny(ph.tag, from)
		rec.SetLivePhase(ph.applied)
		if err != nil {
			return fmt.Errorf("gluon: %s %s from host %d: %w", ph.word, ph.name, h, err)
		}
		if tr {
			rec.Emit(trace.Event{Phase: trace.PhaseRecvWait, Start: t0, Dur: rec.Now() - t0,
				Peer: int32(h), Field: ph.field, Value: uint64(len(payload))})
			t0 = rec.Now()
		}
		remaining = removePeer(remaining, h)
		lids, vals, err := decodeBody[V](g, payload, ph.recv.lists[h], ps)
		if err != nil {
			comm.PutBuf(payload)
			g.dumpInvariant(h, err)
			return fmt.Errorf("gluon: %s %s from host %d: %w", ph.word, ph.name, h, err)
		}
		ph.apply(lids, vals, updated)
		comm.PutBuf(payload)
		if tr {
			rec.Emit(trace.Event{Phase: ph.applied, Start: t0, Dur: rec.Now() - t0,
				Peer: int32(h), Field: ph.field})
		}
	}
	err := <-sendErr
	putPeerScratch(ps) // not pooled on the error returns above: senders may still hold the lists
	return err
}

// peerLists fills the scratch with the peers this sync sends to and
// receives from, skipping self and empty orders.
func (ps *peerScratch) peerLists(hosts, me int, send, recv *orderSet) (sendPeers, recvPeers []int) {
	sendPeers, recvPeers = ps.send[:0], ps.recv[:0]
	for h := 0; h < hosts; h++ {
		if h == me {
			continue
		}
		if len(send.lists[h]) > 0 {
			sendPeers = append(sendPeers, h)
		}
		if len(recv.lists[h]) > 0 {
			recvPeers = append(recvPeers, h)
		}
	}
	ps.send, ps.recv = sendPeers, recvPeers
	return sendPeers, recvPeers
}

// removePeer deletes h from peers in place, keeping the rest in order (an
// ordered phase reads its next sender off the front).
func removePeer(peers []int, h int) []int {
	for i, p := range peers {
		if p == h {
			return append(peers[:i], peers[i+1:]...)
		}
	}
	return peers
}

// updatedIn lists the positions of a memoized order that carry an update
// this round and the local IDs at those positions: every position when
// updated is nil, otherwise the word-level intersection of the order's mask
// with updated. Both slices alias sc or order and are only valid until the
// next call on the same scratch.
func (sc *encodeScratch) updatedIn(order []uint32, mask *bitset.OrderMask, updated *bitset.Bitset) (positions, lids []uint32) {
	positions = sc.positions[:0]
	if updated == nil {
		for i := range order {
			positions = append(positions, uint32(i))
		}
		sc.positions = positions
		return positions, order
	}
	sc.positions, sc.sent = mask.IntersectAppend(updated, positions, sc.sent[:0])
	return sc.positions, sc.sent
}

// encodeMsg builds one field-sync message for the given memoized order and
// its OrderMask, selecting the cheapest of the §4.2 encodings (or (GID,
// value) pairs when temporal invariance is off). Values are read from src
// with one Extract per message, matching the GPU plugin's staged transfers.
// The payload comes from the comm buffer pool and is released per the
// Transport contract once sent; index and value staging live in sc.
//
// It returns the payload, the local IDs whose values were shipped (sent
// aliases either sc or order and is only valid until the next encode on the
// same scratch), and the message's accounting record.
func encodeMsg[V Value](g *Gluon, order []uint32, mask *bitset.OrderMask, updated *bitset.Bitset, src extractor[V], sc *encodeScratch) (payload []byte, sent []uint32, ms msgStats) {
	vs := wireSize[V]()
	n := len(order)
	if !g.Opt.TemporalInvariance {
		// Pre-Gluon wire format: (global-ID, value) pairs for every updated
		// proxy. No memoized ordering is assumed by the receiver.
		_, sent = sc.updatedIn(order, mask, updated)
		k := len(sent)
		vals := scratchVals[V](&sc.vals, k)
		src.Extract(sent, vals)
		payload = comm.GetBuf(5 + k*(8+vs))
		payload[0] = modeGIDs
		le.PutUint32(payload[1:], uint32(k))
		for i, lid := range sent {
			le.PutUint64(payload[5+i*(8+vs):], g.Part.GID(lid))
		}
		putVals(payload, 5+8, 8+vs, vals)
		return payload, sent, msgStats{mode: modeGIDs, meta: 5, gid: uint64(k) * 8, value: uint64(k * vs)}
	}
	// The number of updated proxies settles the mode; which ones they are is
	// only listed for the sparse modes, so a dense message — every round of
	// a pagerank — costs a popcount pass, not two appends per proxy. A sparse
	// message is then sized by the list, so it is well-formed whatever the
	// count said.
	k := n
	if updated != nil {
		k = mask.CountIn(updated)
	}
	if k == 0 {
		payload = comm.GetBuf(1)
		payload[0] = modeEmpty
		return payload, nil, msgStats{mode: modeEmpty, meta: 1}
	}

	// Size each §4.2 encoding and pick the smallest.
	bvWords := (n + 63) / 64
	denseSize := 1 + n*vs
	bitvecSize := 1 + 4 + bvWords*8 + k*vs
	idxSize := 1 + 4 + k*4 + k*vs
	// A forced encoding disqualifies the others (ablation mode).
	switch g.Opt.ForceEncoding {
	case EncodingDense:
		bitvecSize, idxSize = 1<<30, 1<<30
	case EncodingBitvec:
		denseSize, idxSize = 1<<30, 1<<30
	case EncodingIndices:
		denseSize, bitvecSize = 1<<30, 1<<30
	}

	// Lay down the mode's metadata; the packed values follow it.
	var off int
	var positions []uint32
	switch {
	case denseSize <= bitvecSize && denseSize <= idxSize:
		// Dense messages ship every proxy in the order.
		sent = order
		payload = comm.GetBuf(denseSize)
		ms.mode, off = modeDense, 1
	case bitvecSize <= idxSize:
		positions, sent = sc.updatedIn(order, mask, updated)
		ms.mode, off = modeBitvec, 5+bvWords*8
		payload = comm.GetBuf(off + len(sent)*vs)
		le.PutUint32(payload[1:], uint32(len(sent)))
		// Write the bit-vector straight into the payload: bit p of the
		// little-endian word stream is byte p/8, bit p%8.
		bv := payload[5:off]
		clear(bv)
		for _, pos := range positions {
			bv[pos>>3] |= 1 << (pos & 7)
		}
	default:
		positions, sent = sc.updatedIn(order, mask, updated)
		ms.mode, off = modeIndices, 5+len(sent)*4
		payload = comm.GetBuf(off + len(sent)*vs)
		le.PutUint32(payload[1:], uint32(len(sent)))
		for i, pos := range positions {
			le.PutUint32(payload[5+i*4:], pos)
		}
	}
	payload[0] = ms.mode
	ms.meta = uint64(off)
	ms.value = uint64(len(sent) * vs)
	vals := scratchVals[V](&sc.vals, len(sent))
	src.Extract(sent, vals)
	putVals(payload, off, vs, vals)
	return payload, sent, ms
}

// decodeBody turns one received message into the local IDs it updates
// (resolved through the memoized order, or through global-ID translation
// for modeGIDs messages) and their values, in wire order. The whole message
// is validated before anything is returned, so the caller applies all of a
// message or none of it. Both slices are only valid until the next decode on
// the same scratch; lids aliases order for a dense message.
func decodeBody[V Value](g *Gluon, payload []byte, order []uint32, ps *peerScratch) (lids []uint32, vals []V, err error) {
	if len(payload) == 0 {
		return nil, nil, fmt.Errorf("empty payload")
	}
	vs, n := wireSize[V](), len(order)
	body := payload[1:]
	// Each mode settles which lids the values go to, where in body the
	// values start and how far apart they lie.
	lids = ps.lids[:0]
	valOff, stride := 0, vs
	switch mode := payload[0]; mode {
	case modeEmpty:
		return nil, nil, nil
	case modeDense:
		if len(body) != n*vs {
			return nil, nil, fmt.Errorf("dense message: %d bytes for %d proxies of size %d", len(body), n, vs)
		}
		lids = order
	case modeBitvec:
		if len(body) < 4 {
			return nil, nil, fmt.Errorf("short bitvec message")
		}
		k := int(le.Uint32(body))
		valOff = 4 + (n+63)/64*8
		if len(body) != valOff+k*vs {
			return nil, nil, fmt.Errorf("bitvec message: %d bytes, want %d", len(body), valOff+k*vs)
		}
		bv := body[4:valOff]
		set := 0
		for off := 0; off < len(bv); off += 8 {
			set += bits.OnesCount64(le.Uint64(bv[off:]))
		}
		if set != k {
			return nil, nil, fmt.Errorf("bitvec message: %d set bits, count says %d", set, k)
		}
		if n%wordBits != 0 && le.Uint64(bv[len(bv)-8:])>>(n%wordBits) != 0 {
			return nil, nil, fmt.Errorf("bitvec message: position beyond the %d proxies", n)
		}
		for off := 0; off < len(bv); off += 8 {
			for w := le.Uint64(bv[off:]); w != 0; w &= w - 1 {
				lids = append(lids, order[off*8+bits.TrailingZeros64(w)])
			}
		}
	case modeIndices:
		if len(body) < 4 {
			return nil, nil, fmt.Errorf("short indices message")
		}
		k := int(le.Uint32(body))
		valOff = 4 + k*4
		if len(body) != valOff+k*vs {
			return nil, nil, fmt.Errorf("indices message: %d bytes, want %d", len(body), valOff+k*vs)
		}
		for off := 4; off < valOff; off += 4 {
			pos := le.Uint32(body[off:])
			if int(pos) >= n {
				return nil, nil, fmt.Errorf("indices message: position %d out of %d", pos, n)
			}
			lids = append(lids, order[pos])
		}
	case modeGIDs:
		if len(body) < 4 {
			return nil, nil, fmt.Errorf("short gid-pairs message")
		}
		k := int(le.Uint32(body))
		valOff, stride = 4+8, 8+vs
		if len(body) != 4+k*stride {
			return nil, nil, fmt.Errorf("gid-pairs message: %d bytes, want %d", len(body), 4+k*stride)
		}
		for off := 4; off < len(body); off += stride {
			gid := le.Uint64(body[off:])
			lid, ok := g.Part.LID(gid)
			if !ok {
				return nil, nil, fmt.Errorf("gid-pairs message: gid %d has no local proxy", gid)
			}
			lids = append(lids, lid)
		}
	default:
		return nil, nil, fmt.Errorf("unknown message mode %d", mode)
	}
	if payload[0] != modeDense {
		ps.lids = lids // keep what append grew
	}
	vals = scratchVals[V](&ps.vals, len(lids))
	getVals(body, valOff, stride, vals)
	return lids, vals, nil
}

// wordBits mirrors the bitset word width for inline bit-vector decoding.
const wordBits = 64
