package gluon

import (
	"fmt"
	"math"
	"math/bits"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/par"
	"gluon/internal/partition"
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

// Sync synchronizes one field across all hosts: a reduce half (mirror
// values folded into masters) followed by a broadcast half (canonical values
// pushed back to mirrors), each restricted to the structurally necessary
// proxy subsets. For OEC partitions of push-style fields the broadcast half
// is empty; for IEC the reduce half is empty; CVC uses proper subsets of
// mirrors in both; unconstrained cuts use all mirrors. It is
// SyncApply(g, f, nil, f, updated).
//
// updated tracks which local proxies changed this round; Sync consumes
// mirror bits it ships (resetting those mirrors), adds bits for masters
// changed by reduce and mirrors changed by broadcast, so that on return
// updated holds exactly the proxies whose values are new — the engine's
// next frontier. A nil updated means "assume everything changed".
func Sync[V Value](g *Gluon, f Field[V], updated *bitset.Bitset) error {
	return SyncApply(g, f, nil, f, updated)
}

// SyncApply runs the reduce half of rf and the broadcast half of bf as one
// streamed pipeline with the program's apply hook between them: once every
// reduce sender has delivered the contributions to a range of masters
// [lo, hi), apply(lo, hi) turns them into the values bf broadcasts, and the
// broadcast messages covering only final masters go out while the rest of
// the reduce is still arriving (DESIGN.md §4.1). A nil rf.Reduce or
// bf.Broadcast drops that half.
//
// Without a hook, reduce marks in updated the masters it changed, as Sync
// describes. With one, a master's mark is the hook's to give: the pipeline
// clears updated on each range before apply runs and reduce marks nothing,
// so apply marks the masters whose values the broadcast must carry, with
// atomic word updates (Set or a Marker: encoders read and clear neighbouring
// words concurrently). apply runs on the calling goroutine, once per range,
// the ranges ascending and together covering every master.
//
// Messages for different peers are encoded by parallel workers into pooled
// buffers while the calling goroutine applies arrivals: reduce in ascending
// sender rank, broadcast in arrival order. None of this changes a value:
// every message is the one a serial, fixed-order sync sends, except that in
// a sync with both halves an order whose values exceed sliceBytes goes out
// as fixed slices, each an ordinary message over its sub-order with its own
// encoding mode.
func SyncApply[R, B Value](g *Gluon, rf Field[R], apply func(lo, hi uint32), bf Field[B], updated *bitset.Bitset) error {
	var red half[R]
	if rf.Reduce != nil {
		send, recv := g.peersForReduce(rf.Write, g.Opt.StructuralInvariants)
		red = half[R]{field: rf.ID, name: rf.Name, word: "reduce", tag: g.reduceTag(rf.ID),
			send: send, recv: recv, reduce: rf.Reduce, applied: trace.PhaseFold}
	}
	var bc half[B]
	if bf.Broadcast != nil {
		bc = broadcastHalf(g, bf, g.Opt.StructuralInvariants)
	}
	cut := rf.Reduce != nil && bf.Broadcast != nil && g.twoHalves(rf.Write, bf.Read)
	return runSync(g, red, apply, bc, cut, updated)
}

// BroadcastAll pushes masters' canonical values to every mirror regardless
// of structural pattern or update tracking: a full reconciliation, used to
// finalize results before output or verification.
func BroadcastAll[V Value](g *Gluon, f Field[V]) error {
	return runSync(g, half[V]{}, nil, broadcastHalf(g, f, false), false, nil)
}

// broadcastHalf builds f's broadcast half with the structural-invariant
// choice made explicit, so BroadcastAll can run unconstrained without
// mutating shared options.
func broadcastHalf[V Value](g *Gluon, f Field[V], structural bool) half[V] {
	send, recv := g.peersForBroadcast(f.Read, structural)
	return half[V]{field: f.ID, name: f.Name, word: "broadcast", tag: g.broadcastTag(f.ID),
		send: send, recv: recv, set: f.Broadcast, applied: trace.PhaseApply}
}

// twoHalves reports whether a sync that writes at write and reads at read
// has both halves under the structural plan, the only kind whose orders go
// out in slices. Both ends of an order must agree on that without a
// message, so it asks the policy, which every host knows alike, rather than
// this host's own orders: an OEC mirror has no out-edges and an IEC mirror
// no in-edges, so under structural invariants those policies leave nothing
// to reduce or broadcast at that endpoint anywhere.
func (g *Gluon) twoHalves(write, read Location) bool {
	if !g.Opt.StructuralInvariants {
		return true
	}
	switch partition.Kind(g.Part.Policy.Name()) {
	case partition.OEC:
		return write != AtSource && read != AtSource
	case partition.IEC:
		return write != AtDestination && read != AtDestination
	}
	return true
}

// half is one direction of a sync (§3.3): which memoized orders are sent
// and received into, and which spec values are read out of and meet on
// arrival. A half that exists has exactly one of reduce and set; the zero
// half has neither, and no orders.
//
// It travels by value into the sender goroutines' closures; keeping it
// under the compiler's 128-byte limit for by-value capture (orders by
// pointer) is what keeps a sync from allocating its descriptor.
type half[V Value] struct {
	field      uint32   // Field.ID, for spans
	name       string   // Field.Name, for spans and errors
	word       string   // "reduce" / "broadcast", for errors
	tag        comm.Tag // namespaces this field and direction on the wire
	send, recv *orderSet
	// reduce also returns each mirror whose value was shipped to the
	// reduction identity; its "changed" bit migrates to the master with the
	// value.
	reduce  ReduceSpec[V]
	set     BroadcastSpec[V]
	applied trace.Phase // PhaseFold / PhaseApply: the span of one applied message
}

// src is the spec sent values are read from.
func (hf *half[V]) src() extractor[V] {
	if hf.reduce != nil {
		return hf.reduce
	}
	return hf.set
}

// runSync is the one sync pipeline: peer lists → parallel encode → send →
// receive → decode → fold → apply → encode → send → receive → set.
//
// A master is final once every reduce sender has delivered the slice that
// covers it. Senders are taken one at a time in ascending rank and each
// sender's slices in order — early arrivals wait in the transport's
// per-(sender, tag) mailbox, which is the queue — so every master folds its
// contributions in the same sequence every run, and the final masters are
// always a prefix: those below the first master of the next slice due and
// of every later sender's order. Each time the prefix grows, apply runs on
// the new range and the broadcast sender is woken to ship every slice now
// wholly below it. Broadcasts are received once the reduce is in, in
// arrival order: a broadcast value has exactly one sender, the owner, so
// arrival order cannot show.
func runSync[R, B Value](g *Gluon, red half[R], apply func(lo, hi uint32), bc half[B], cut bool, updated *bitset.Bitset) error {
	if rec := g.rec; rec.Enabled() {
		syncT0 := rec.Now()
		defer func() {
			field, name := red.field, red.name
			if red.reduce == nil {
				field, name = bc.field, bc.name
			}
			rec.Emit(trace.Event{Phase: trace.PhaseSync, Start: syncT0, Dur: rec.Now() - syncT0,
				Field: field, Peer: -1, Detail: name})
		}()
	}

	n, me, nm := g.NumHosts(), g.HostID(), g.Part.NumMasters
	ps := getPeerScratch()
	redSend, redRecv := ps.peersOf(0, n, me, red.send), ps.peersOf(1, n, me, red.recv)
	bcSend, bcRecv := ps.peersOf(2, n, me, bc.send), ps.peersOf(3, n, me, bc.recv)
	redNext, bcNext, taken := ps.counters(0, len(redSend)), ps.counters(1, len(bcSend)), ps.counters(2, n)
	errs := ps.errCh

	// Mirrors are ready to ship at once. Reduce sends per-peer mirror sets,
	// which are disjoint, so encode and Reset for different peers touch
	// disjoint lids, and updated is read and cleared a word at a time,
	// atomically. Sends run off the receive path so that large bidirectional
	// exchanges cannot deadlock on transport buffering.
	senders := 0
	if len(redSend) > 0 {
		senders++
		g.sendWG.Add(1)
		go func() {
			defer g.sendWG.Done()
			errs <- red.sendReady(g, redSend, redNext, math.MaxInt64, cut, updated)
		}()
	}

	// release makes the masters below to final: apply, then publish.
	var final uint32
	release := func(to uint32) {
		if to <= final {
			return
		}
		if apply != nil {
			if updated != nil {
				updated.ClearRange(final, to)
			}
			apply(final, to)
		}
		final = to
		ps.publish(int64(to))
	}
	// firstFrom is the lowest master that the senders from the i-th on may
	// still have to contribute to.
	firstFrom := func(i int) uint32 {
		first := nm
		for _, h := range redRecv[i:] {
			first = min(first, red.recv.lists[h][0])
		}
		return first
	}
	abort := func(err error) error {
		ps.publish(-1)
		return err // not pooled: senders may still hold the scratch
	}
	release(firstFrom(0))
	if len(bcSend) > 0 {
		senders++
		g.sendWG.Add(1)
		go func() {
			defer g.sendWG.Done()
			errs <- bc.stream(g, ps, bcSend, bcNext, cut, updated)
		}()
	}

	changed := updated
	if apply != nil {
		changed = nil
	}
	restore := trace.LabelPhase(trace.PhaseFold)
	for i, h := range redRecv {
		sl := red.recv.slices(h, wireSize[R](), cut)
		for taken[h] < len(sl) {
			if _, err := red.take(g, ps, redRecv[i:i+1], taken, cut, changed); err != nil {
				restore()
				return abort(err)
			}
			next := firstFrom(i + 1)
			if taken[h] < len(sl) {
				next = min(next, sl[taken[h]].lids[0])
			}
			release(next)
		}
	}
	release(nm)
	restore()

	defer trace.LabelPhase(trace.PhaseApply)()
	clear(taken)
	remaining := append(ps.lists[4][:0], bcRecv...)
	ps.lists[4] = remaining
	for len(remaining) > 0 {
		h, err := bc.take(g, ps, remaining, taken, cut, updated)
		if err != nil {
			return abort(err)
		}
		if taken[h] == len(bc.recv.slices(h, wireSize[B](), cut)) {
			remaining = removePeer(remaining, h)
		}
	}
	var err error
	for ; senders > 0; senders-- {
		if e := <-errs; err == nil {
			err = e
		}
	}
	putPeerScratch(ps)
	return err
}

// stream is the broadcast sender: it ships every slice the released prefix
// of final masters covers, then waits for the receive loop to release more,
// until every master is final or the sync is abandoned.
func (hf *half[V]) stream(g *Gluon, ps *peerScratch, peers, next []int, cut bool, updated *bitset.Bitset) error {
	for {
		limit := ps.final.Load()
		if limit < 0 {
			return nil
		}
		if err := hf.sendReady(g, peers, next, limit, cut, updated); err != nil {
			return err
		}
		if limit == int64(g.Part.NumMasters) {
			return nil
		}
		<-ps.wake
	}
}

// sendReady encodes and sends, in order, each peer's slices whose members
// all lie below limit, starting at the peer's count in next and advancing
// it past what it sends. Peers fan out across workers when more than one
// has a slice ready; otherwise the call allocates nothing.
func (hf *half[V]) sendReady(g *Gluon, peers, next []int, limit int64, cut bool, updated *bitset.Bitset) error {
	ready := 0
	for i, h := range peers {
		if sl := hf.send.slices(h, wireSize[V](), cut); next[i] < len(sl) && int64(sl[next[i]].last()) < limit {
			ready++
		}
	}
	if ready == 0 {
		return nil
	}
	if min(par.DefaultWorkers(), ready) == 1 {
		return hf.sendRange(g, peers, next, limit, cut, updated, 0, 0, len(peers))
	}
	return par.RangeWorkers(len(peers), 0, func(w, lo, hi int) error {
		return hf.sendRange(g, peers, next, limit, cut, updated, w, lo, hi)
	})
}

// sendRange is worker w's share of sendReady: peers[lo:hi].
func (hf *half[V]) sendRange(g *Gluon, peers, next []int, limit int64, cut bool, updated *bitset.Bitset, w, lo, hi int) error {
	defer trace.LabelPhase(trace.PhaseEncode)()
	rec := g.rec
	tr := rec.Enabled()
	sc := getEncodeScratch()
	defer putEncodeScratch(sc)
	var st Stats
	defer g.foldStats(&st)
	lane := int32(1 + w)
	src := hf.src()
	for i := lo; i < hi; i++ {
		h := peers[i]
		sl := hf.send.slices(h, wireSize[V](), cut)
		for ; next[i] < len(sl) && int64(sl[next[i]].last()) < limit; next[i]++ {
			s := sl[next[i]]
			var t0 int64
			if tr {
				t0 = rec.Now()
			}
			payload, sent, ms := encodeMsg(g, s.lids, s.mask, updated, src, sc)
			st.addMsg(&ms)
			if tr {
				rec.Emit(trace.Event{Phase: trace.PhaseEncode, Start: t0, Dur: rec.Now() - t0,
					Peer: int32(h), Field: hf.field, Lane: lane, Mode: int8(ms.mode),
					Value: ms.value, Meta: ms.meta, GID: ms.gid})
			}
			if hf.reduce != nil {
				// What was shipped is every updated member of the slice,
				// so consuming the bits clears the whole slice.
				hf.reduce.Reset(sent)
				if updated != nil {
					s.mask.ClearIn(updated)
				}
			}
			if tr {
				t0 = rec.Now()
			}
			if err := g.T.Send(h, hf.tag, payload); err != nil {
				return fmt.Errorf("gluon: %s %s to host %d: %w", hf.word, hf.name, h, err)
			}
			if tr {
				rec.Emit(trace.Event{Phase: trace.PhaseSend, Start: t0, Dur: rec.Now() - t0,
					Peer: int32(h), Field: hf.field, Lane: lane})
			}
		}
	}
	return nil
}

// take receives this half's next message from one of the peers in from,
// decodes it against the next slice of its sender's order (taken counts,
// per host, the slices already taken) and meets it with the local state;
// it returns the sender. The message is checked as a whole first, so a
// malformed one applies nothing, and decoded out of its receive buffer into
// the scratch's (lids, values) pair, handed to the spec in one call: the
// copy is a sequential pass over bytes already in cache, and it buys the
// spec a typed loop instead of a call chain per value.
//
// changed is what Reduce marks; a broadcast marks it with every mirror it
// delivers to, even when the value is unchanged: the mirror that originated
// this round's best value has the value already, but its outgoing edges have
// not been processed with it yet (matters for unconstrained vertex cuts,
// where a mirror can have both incoming and outgoing edges).
func (hf *half[V]) take(g *Gluon, ps *peerScratch, from, taken []int, cut bool, changed *bitset.Bitset) (int, error) {
	rec := g.rec
	tr := rec.Enabled()
	var t0 int64
	if tr {
		t0 = rec.Now()
	}
	// The live-phase flips cost two atomic stores per message (nil-safe,
	// alloc-free); they let the watchdog tell a host blocked waiting on a
	// peer (a victim) from one still producing (a suspect).
	rec.SetLivePhase(trace.PhaseRecvWait)
	h, payload, err := g.T.RecvAny(hf.tag, from)
	rec.SetLivePhase(hf.applied)
	if err != nil {
		return h, fmt.Errorf("gluon: %s %s from host %d: %w", hf.word, hf.name, h, err)
	}
	if tr {
		rec.Emit(trace.Event{Phase: trace.PhaseRecvWait, Start: t0, Dur: rec.Now() - t0,
			Peer: int32(h), Field: hf.field, Value: uint64(len(payload))})
		t0 = rec.Now()
	}
	sl := hf.recv.slices(h, wireSize[V](), cut)[taken[h]]
	taken[h]++
	lids, vals, err := decodeBody[V](g, payload, sl.lids, ps)
	if err != nil {
		comm.PutBuf(payload)
		g.dumpInvariant(h, err)
		return h, fmt.Errorf("gluon: %s %s from host %d: %w", hf.word, hf.name, h, err)
	}
	if hf.reduce != nil {
		hf.reduce.Reduce(lids, vals, changed)
	} else {
		hf.set.Set(lids, vals)
		if changed != nil {
			changed.SetMany(lids)
		}
	}
	comm.PutBuf(payload)
	if tr {
		rec.Emit(trace.Event{Phase: hf.applied, Start: t0, Dur: rec.Now() - t0,
			Peer: int32(h), Field: hf.field})
	}
	return h, nil
}

// peersOf fills list i of the scratch with the peers whose order in set is
// non-empty, ascending and skipping self; none when set is nil.
func (ps *peerScratch) peersOf(i, hosts, me int, set *orderSet) []int {
	peers := ps.lists[i][:0]
	for h := 0; set != nil && h < hosts; h++ {
		if h != me && len(set.lists[h]) > 0 {
			peers = append(peers, h)
		}
	}
	ps.lists[i] = peers
	return peers
}

// removePeer deletes h from peers in place, keeping the rest in order.
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
