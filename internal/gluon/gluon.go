// Package gluon implements the paper's contribution: a
// communication-optimizing substrate that couples shared-memory graph
// analytics engines into a distributed-memory system.
//
// One Gluon instance lives on each host, wrapping that host's Partition and
// a comm.Transport. Engines run rounds of computation on the local graph
// and call Sync between rounds with a per-field synchronization descriptor
// (the reduce/broadcast structs of §3.3). Gluon composes the minimal
// communication pattern from
//
//   - structural invariants (§3.2): which proxies can be written/read under
//     the partitioning policy, derived from per-proxy has-in/has-out flags —
//     OEC degenerates to reduce-only, IEC to broadcast-only, CVC to
//     subset-reduce + subset-broadcast, UVC to the full gather-apply-scatter;
//   - temporal invariance (§4): a one-time memoization exchange fixes, for
//     every host pair, which proxies communicate and in what order, so no
//     global IDs are ever sent afterwards (§4.1), and per-message metadata
//     adapts between dense / bitvector / index / empty encodings by computed
//     size (§4.2).
//
// Every optimization can be disabled independently (Options), which is how
// the Figure 10 UNOPT/OSI/OTI/OSTI experiments are produced.
package gluon

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/partition"
	"gluon/internal/trace"
)

// Encoding selects how update metadata is represented on the wire.
type Encoding uint8

// Metadata encodings (§4.2). EncodingAuto — pick the smallest per message —
// is the paper's behaviour; the fixed settings exist for ablation studies.
const (
	EncodingAuto Encoding = iota
	EncodingDense
	EncodingBitvec
	EncodingIndices
)

// Options toggles the communication optimizations, matching the paper's
// Figure 10 configurations.
type Options struct {
	// StructuralInvariants (OSI): when false, every field syncs with the
	// unconstrained gather-apply-scatter pattern — reduce from all mirrors,
	// then broadcast to all mirrors — regardless of policy.
	StructuralInvariants bool
	// TemporalInvariance (OTI): when false, messages carry (global-ID,
	// value) pairs and the adaptive metadata encodings are disabled; the
	// receiver translates IDs on arrival, as pre-Gluon systems do.
	TemporalInvariance bool
	// ForceEncoding pins the metadata encoding instead of the adaptive
	// per-message choice (ablation of §4.2; ignored when
	// TemporalInvariance is off). Empty messages are always sent as such.
	ForceEncoding Encoding
}

// Unopt returns the baseline configuration with both optimizations off.
func Unopt() Options { return Options{} }

// Opt returns the standard configuration (OSTI) with both optimizations on.
func Opt() Options {
	return Options{StructuralInvariants: true, TemporalInvariance: true}
}

// orderSet is a family of per-peer memoized exchange orders, each cut at
// memoization into the slices a sync sends it as: whole[h] is lists[h] as
// one slice, cut[w][h] its fixed slices for a sync with both halves over
// values of 4<<w bytes. Every slice carries the bitset.OrderMask of its
// members, so the sync hot path intersects it against the updated bitset a
// word at a time.
type orderSet struct {
	lists [][]uint32
	whole []orderSlice
	cut   [2][][]orderSlice
}

// orderSlice is a run of consecutive positions of one memoized order: the
// sub-order one §4.2 message is encoded over.
type orderSlice struct {
	lids []uint32
	mask *bitset.OrderMask
}

// last is the slice's highest local ID.
func (s orderSlice) last() uint32 { return s.lids[len(s.lids)-1] }

// sliceBytes bounds the values one slice of a cut order carries. It is a
// variable only so that tests can lower it before memoization.
var sliceBytes = 128 << 10

// slices returns the slices peer h's non-empty order is sent as: the fixed
// cut for values of valueSize bytes when cut is set, else the whole order.
func (s *orderSet) slices(h, valueSize int, cut bool) []orderSlice {
	if cut {
		return s.cut[valueSize/8][h]
	}
	return s.whole[h : h+1]
}

// newOrderSet wraps per-peer order lists and cuts them. An order whose
// values take more than sliceBytes is cut into ⌈n·valueSize / sliceBytes⌉
// slices of equal length (±1), a function of its length alone, so both ends
// of an order cut it alike. Every list must be strictly lid-ascending:
// mirror-side lists are by construction (localMirrors), master-side lists
// come from a peer and are checked where they enter (decodeMemo).
func newOrderSet(lists [][]uint32) orderSet {
	s := orderSet{lists: lists, whole: make([]orderSlice, len(lists))}
	for w := range s.cut {
		s.cut[w] = make([][]orderSlice, len(lists))
	}
	for h, l := range lists {
		if len(l) == 0 {
			continue
		}
		s.whole[h] = orderSlice{l, bitset.NewOrderMask(l)}
		for w := range s.cut {
			k := min(len(l), (len(l)*(4<<w)+sliceBytes-1)/sliceBytes)
			if k == 1 {
				s.cut[w][h] = s.whole[h : h+1]
				continue
			}
			cuts := make([]orderSlice, k)
			for j := range cuts {
				sub := l[j*len(l)/k : (j+1)*len(l)/k]
				cuts[j] = orderSlice{sub, bitset.NewOrderMask(sub)}
			}
			s.cut[w][h] = cuts
		}
	}
	return s
}

// Gluon is one host's communication substrate instance.
type Gluon struct {
	Part *partition.Partition
	T    comm.Transport
	Opt  Options

	// Memoized exchange orders (§4.1), all in agreed (GID-ascending) order.
	//
	// mirrors.lists[h]: local IDs of my mirror proxies whose master is on
	// host h. masters.lists[h]: local IDs of my master proxies that have a
	// mirror on h, positionally aligned with h's mirrors.lists[me].
	mirrors orderSet
	masters orderSet

	// Structural-invariant subsets (§3.2). mirrorsIn/mastersIn restrict to
	// proxies whose mirror has incoming local edges (can be written by a
	// write-at-destination operator); mirrorsOut/mastersOut to mirrors with
	// outgoing edges (will be read by a read-at-source operator).
	mirrorsIn, mirrorsOut orderSet
	mastersIn, mastersOut orderSet

	// rec is this host's observability sink; nil (the default) disables
	// every instrumentation site at the cost of one nil check. Set it with
	// SetRecorder before the instance is used concurrently.
	rec *trace.Recorder

	// stats is guarded by statsMu: parallel encode workers fold their
	// local counters in on join, and the sync receive loop runs
	// concurrently with the senders.
	statsMu sync.Mutex
	stats   Stats

	// sendWG tracks the pipelined sync send goroutines. A sync that fails
	// mid-flight (peer death) returns before its sender finishes; the
	// checkpoint rendezvous calls WaitSends to quiesce the wire before
	// announcing HOLD, so no pre-rollback frame can trail the announcement.
	sendWG sync.WaitGroup
}

// WaitSends blocks until every in-flight sync send goroutine has finished.
// Used by the rejoin rendezvous; safe to call at any quiescent point.
func (g *Gluon) WaitSends() { g.sendWG.Wait() }

// SetRecorder attaches a trace recorder to this substrate instance; sync
// calls then emit per-phase spans tagged with exact payload byte splits.
// Call it before the Gluon is used from multiple goroutines (the field is
// read without synchronization on the hot path). A nil recorder disables
// emission.
func (g *Gluon) SetRecorder(r *trace.Recorder) { g.rec = r }

// dumpInvariant freezes a postmortem bundle through the armed flight
// recorder when a sync message violates the wire contract: the bytes
// arrived intact — transport failures dump in comm under their own
// triggers — but could not be decoded against the memoized proxy order.
// Free when no flight recorder is armed; nil-safe on g.rec.
func (g *Gluon) dumpInvariant(peer int, cause error) {
	if trace.Armed() == nil {
		return
	}
	trace.Crash(trace.DumpInfo{
		Trigger: trace.TriggerSyncInvariant,
		Host:    g.HostID(),
		Peer:    peer,
		Round:   int(g.rec.Round()),
		Phase:   g.rec.LivePhase(),
		Cause:   cause,
	})
}

// foldStats merges a worker's local counters into the shared stats.
func (g *Gluon) foldStats(st *Stats) {
	g.statsMu.Lock()
	g.stats = g.stats.Add(*st)
	g.statsMu.Unlock()
}

// New builds the substrate for one host and runs the memoization exchange
// (Memoize) with all peers. All hosts of the communicator must call New
// concurrently (it communicates).
func New(p *partition.Partition, t comm.Transport, opt Options) (*Gluon, error) {
	if p.HostID != t.HostID() || p.NumHosts != t.NumHosts() {
		return nil, fmt.Errorf("gluon: partition host %d/%d does not match transport %d/%d",
			p.HostID, p.NumHosts, t.HostID(), t.NumHosts())
	}
	g := &Gluon{Part: p, T: t, Opt: opt}
	if err := g.Memoize(); err != nil {
		return nil, err
	}
	return g, nil
}

// Memoize runs the §4.1 exchange: each host informs every other host of the
// global IDs of its mirrors owned by that host, together with the mirrors'
// structural flags; both sides then translate to local IDs once and never
// exchange IDs again. It is the one source of the exchange orders: every
// host of the communicator calls New or Memoize together, so a host that
// recovers from a checkpoint runs it again after the rejoin rendezvous,
// with no sync in flight.
//
// The exchange always runs — even under UNOPT options — because the runtime
// needs to know which host pairs communicate; UNOPT merely ignores the
// memoized ordering when encoding messages.
func (g *Gluon) Memoize() error {
	p := g.Part
	me := p.HostID
	n := p.NumHosts

	mirrors, mirrorsIn, mirrorsOut := g.localMirrors()
	masters := make([][]uint32, n)
	mastersIn := make([][]uint32, n)
	mastersOut := make([][]uint32, n)

	for h := 0; h < n; h++ {
		if h == me {
			continue
		}
		if err := g.T.Send(h, comm.TagMemo, encodeMemo(p, mirrors[h])); err != nil {
			return err
		}
	}

	for h := 0; h < n; h++ {
		if h == me {
			continue
		}
		payload, err := g.T.Recv(h, comm.TagMemo)
		if err != nil {
			return err
		}
		masters[h], mastersIn[h], mastersOut[h], err = decodeMemo(p, h, payload)
		comm.PutBuf(payload)
		if err != nil {
			return err
		}
	}
	g.mirrors = newOrderSet(mirrors)
	g.mirrorsIn = newOrderSet(mirrorsIn)
	g.mirrorsOut = newOrderSet(mirrorsOut)
	g.masters = newOrderSet(masters)
	g.mastersIn = newOrderSet(mastersIn)
	g.mastersOut = newOrderSet(mastersOut)
	return nil
}

// TagMemo wire format: a u32 count, then per mirror its u64 global ID and a
// flag byte holding memoHasIn and memoHasOut and no other bit.
const (
	memoEntry       = 9
	memoHasIn  byte = 1
	memoHasOut byte = 2
)

// encodeMemo builds the TagMemo payload for one peer: p's mirrors lids,
// all owned by that peer, with their structural flags.
func encodeMemo(p *partition.Partition, lids []uint32) []byte {
	payload := comm.GetBuf(4 + len(lids)*memoEntry)
	binary.LittleEndian.PutUint32(payload, uint32(len(lids)))
	off := 4
	for _, lid := range lids {
		binary.LittleEndian.PutUint64(payload[off:], p.GIDs[lid])
		var flags byte
		if p.HasIn.Test(lid) {
			flags |= memoHasIn
		}
		if p.HasOut.Test(lid) {
			flags |= memoHasOut
		}
		payload[off+8] = flags
		off += memoEntry
	}
	return payload
}

// decodeMemo translates peer from's TagMemo payload into the master-side
// orders of p toward that peer: every lid a master of p, each order strictly
// ascending (the agreed GID order every mask is built on), in and out the
// subsets whose mirror has in- or out-edges. A payload that breaks any of
// this is an error.
func decodeMemo(p *partition.Partition, from int, payload []byte) (all, in, out []uint32, err error) {
	me := p.HostID
	if len(payload) < 4 || len(payload) != 4+int(binary.LittleEndian.Uint32(payload))*memoEntry {
		return nil, nil, nil, fmt.Errorf("gluon: host %d: malformed memoization message from peer %d (%d bytes)", me, from, len(payload))
	}
	entries := payload[4:]
	var numIn, numOut int
	for off := 8; off < len(entries); off += memoEntry {
		if entries[off]&^(memoHasIn|memoHasOut) != 0 {
			return nil, nil, nil, fmt.Errorf("gluon: host %d: peer %d sends unknown mirror flags %#x", me, from, entries[off])
		}
		if entries[off]&memoHasIn != 0 {
			numIn++
		}
		if entries[off]&memoHasOut != 0 {
			numOut++
		}
	}
	all = make([]uint32, 0, len(entries)/memoEntry)
	if numIn > 0 {
		in = make([]uint32, 0, numIn)
	}
	if numOut > 0 {
		out = make([]uint32, 0, numOut)
	}
	for off := 0; off < len(entries); off += memoEntry {
		gid := binary.LittleEndian.Uint64(entries[off:])
		flags := entries[off+8]
		// For a master LID is offset arithmetic in my owned range.
		lid, ok := p.LID(gid)
		if !ok || !p.IsMaster(lid) {
			return nil, nil, nil, fmt.Errorf("gluon: host %d: peer %d claims mirror of gid %d which is not my master", me, from, gid)
		}
		// Master lids ascend with their gids, so this is the agreed
		// GID-ascending order — and what the order masks are built on.
		if k := len(all); k > 0 && lid <= all[k-1] {
			return nil, nil, nil, fmt.Errorf("gluon: host %d: peer %d lists its mirrors out of order (gid %d not above its predecessor)", me, from, gid)
		}
		all = append(all, lid)
		if flags&memoHasIn != 0 {
			in = append(in, lid)
		}
		if flags&memoHasOut != 0 {
			out = append(out, lid)
		}
	}
	return all, in, out, nil
}

// localMirrors computes the mirror-side exchange orders — which of my
// proxies are mirrors owned by each peer, in agreed GID order, plus the
// structural In/Out subsets. Pure local computation over the partition; the
// master-side orders are the part that requires the memoization exchange
// (Memoize).
//
// Mirrors are numbered in ascending GID and every peer owns one contiguous
// GID range, so a peer's mirrors are one contiguous local-ID range: no
// per-GID translation happens here.
func (g *Gluon) localMirrors() (mirrors, mirrorsIn, mirrorsOut [][]uint32) {
	p := g.Part
	n := p.NumHosts
	mirrors = make([][]uint32, n)
	mirrorsIn = make([][]uint32, n)
	mirrorsOut = make([][]uint32, n)
	for h := 0; h < n; h++ {
		lo, hi := p.MirrorRange(h) // empty for h == me: no mirror is in my own range
		if lo == hi {
			continue
		}
		mirrors[h] = make([]uint32, hi-lo)
		for i := range mirrors[h] {
			mirrors[h][i] = lo + uint32(i)
		}
		mirrorsIn[h] = setBitsIn(p.HasIn, lo, hi)
		mirrorsOut[h] = setBitsIn(p.HasOut, lo, hi)
	}
	return mirrors, mirrorsIn, mirrorsOut
}

// setBitsIn lists the set bits of b in [lo, hi), nil when there are none.
func setBitsIn(b *bitset.Bitset, lo, hi uint32) []uint32 {
	c := b.CountRange(lo, hi)
	if c == 0 {
		return nil
	}
	out := make([]uint32, 0, c)
	for i := b.NextSet(lo); i < hi; i = b.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// HostID returns this instance's host rank.
func (g *Gluon) HostID() int { return g.Part.HostID }

// NumHosts returns the communicator size.
func (g *Gluon) NumHosts() int { return g.Part.NumHosts }

// Stats returns a snapshot of the substrate's communication counters.
func (g *Gluon) Stats() Stats {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	return g.stats
}

// peersForReduce returns, for the given write location, the per-peer mirror
// orders this host must send during a reduce and the per-peer master orders
// it receives into, honoring or ignoring structural invariants per the
// explicit flag (callers pass g.Opt.StructuralInvariants except for full
// reconciliations like BroadcastAll).
func (g *Gluon) peersForReduce(write Location, structural bool) (sendMirrors, recvMasters *orderSet) {
	if !structural {
		return &g.mirrors, &g.masters
	}
	switch write {
	case AtDestination:
		return &g.mirrorsIn, &g.mastersIn
	case AtSource:
		return &g.mirrorsOut, &g.mastersOut
	default:
		return &g.mirrors, &g.masters
	}
}

// peersForBroadcast returns, for the given read location, the per-peer
// master orders this host sends during a broadcast and the mirror orders it
// receives into.
func (g *Gluon) peersForBroadcast(read Location, structural bool) (sendMasters, recvMirrors *orderSet) {
	if !structural {
		return &g.masters, &g.mirrors
	}
	switch read {
	case AtSource:
		return &g.mastersOut, &g.mirrorsOut
	case AtDestination:
		return &g.mastersIn, &g.mirrorsIn
	default:
		return &g.masters, &g.mirrors
	}
}

// VerifyMemoization checks that every mirror order lists its proxies in
// ascending GID, the order both ends of a pair agree on. It is a local check
// and exchanges nothing.
func (g *Gluon) VerifyMemoization() error {
	p := g.Part
	for h := 0; h < p.NumHosts; h++ {
		if h == p.HostID {
			continue
		}
		if !sort.SliceIsSorted(g.mirrors.lists[h], func(a, b int) bool {
			return p.GID(g.mirrors.lists[h][a]) < p.GID(g.mirrors.lists[h][b])
		}) {
			return fmt.Errorf("gluon: host %d: mirrors[%d] not in GID order", p.HostID, h)
		}
	}
	return nil
}
