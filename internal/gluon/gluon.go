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
// come from a peer or a checkpoint and are checked where they enter
// (memoize, importMemo).
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

// New builds the substrate for one host and performs the memoization
// exchange with all peers. All hosts of the communicator must call New
// concurrently (it communicates).
func New(p *partition.Partition, t comm.Transport, opt Options) (*Gluon, error) {
	if p.HostID != t.HostID() || p.NumHosts != t.NumHosts() {
		return nil, fmt.Errorf("gluon: partition host %d/%d does not match transport %d/%d",
			p.HostID, p.NumHosts, t.HostID(), t.NumHosts())
	}
	g := &Gluon{Part: p, T: t, Opt: opt}
	if err := g.memoize(); err != nil {
		return nil, err
	}
	return g, nil
}

// memoize runs the §4.1 exchange: each host informs every other host of the
// global IDs of its mirrors owned by that host, together with the mirrors'
// structural flags; both sides then translate to local IDs once and never
// exchange IDs again.
//
// The exchange always runs — even under UNOPT options — because the runtime
// needs to know which host pairs communicate; UNOPT merely ignores the
// memoized ordering when encoding messages.
func (g *Gluon) memoize() error {
	p := g.Part
	me := p.HostID
	n := p.NumHosts

	mirrors, mirrorsIn, mirrorsOut := g.localMirrors()
	masters := make([][]uint32, n)
	mastersIn := make([][]uint32, n)
	mastersOut := make([][]uint32, n)

	// Send to each peer: count, then per mirror its gid and in/out flag byte.
	for h := 0; h < n; h++ {
		if h == me {
			continue
		}
		lids := mirrors[h]
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
		if err := g.T.Send(h, comm.TagMemo, payload); err != nil {
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
		if len(payload) < 4 || len(payload) != 4+int(binary.LittleEndian.Uint32(payload))*memoEntry {
			return fmt.Errorf("gluon: host %d: malformed memoization message from peer %d (%d bytes)", me, h, len(payload))
		}
		entries := payload[4:]
		var numIn, numOut int
		for off := 8; off < len(entries); off += memoEntry {
			if entries[off]&memoHasIn != 0 {
				numIn++
			}
			if entries[off]&memoHasOut != 0 {
				numOut++
			}
		}
		masters[h] = make([]uint32, 0, len(entries)/memoEntry)
		if numIn > 0 {
			mastersIn[h] = make([]uint32, 0, numIn)
		}
		if numOut > 0 {
			mastersOut[h] = make([]uint32, 0, numOut)
		}
		for off := 0; off < len(entries); off += memoEntry {
			gid := binary.LittleEndian.Uint64(entries[off:])
			flags := entries[off+8]
			// For a master LID is offset arithmetic in my owned range.
			lid, ok := p.LID(gid)
			if !ok || !p.IsMaster(lid) {
				return fmt.Errorf("gluon: host %d: peer %d claims mirror of gid %d which is not my master", me, h, gid)
			}
			// Master lids ascend with their gids, so this is the agreed
			// GID-ascending order — and what the order masks are built on.
			if k := len(masters[h]); k > 0 && lid <= masters[h][k-1] {
				return fmt.Errorf("gluon: host %d: peer %d lists its mirrors out of order (gid %d not above its predecessor)", me, h, gid)
			}
			masters[h] = append(masters[h], lid)
			if flags&memoHasIn != 0 {
				mastersIn[h] = append(mastersIn[h], lid)
			}
			if flags&memoHasOut != 0 {
				mastersOut[h] = append(mastersOut[h], lid)
			}
		}
		comm.PutBuf(payload)
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
// flag byte.
const (
	memoEntry       = 9
	memoHasIn  byte = 1
	memoHasOut byte = 2
)

func countAll(lists [][]uint32) uint64 {
	var c uint64
	for _, l := range lists {
		c += uint64(len(l))
	}
	return c
}

// localMirrors computes the mirror-side exchange orders — which of my
// proxies are mirrors owned by each peer, in agreed GID order, plus the
// structural In/Out subsets. Pure local computation over the partition; the
// master-side orders are the part that requires either the memoization
// exchange (New) or a checkpointed import (NewRestored).
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

// ExportMemo serializes the master-side memoized orders (masters,
// mastersIn, mastersOut) for checkpointing. A replacement host cannot
// re-run the memoization exchange — the survivors are holding at the
// rendezvous, not in New — so the checkpoint carries the only state the
// exchange would have produced; the mirror side is recomputed locally.
// Layout: u32 numHosts, then for each of the three sets, per host a u32
// count followed by that many u32 local IDs.
func (g *Gluon) ExportMemo() []byte {
	n := g.Part.NumHosts
	size := 4
	for _, set := range []*orderSet{&g.masters, &g.mastersIn, &g.mastersOut} {
		size += 4 * n
		size += 4 * int(countAll(set.lists))
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	for _, set := range []*orderSet{&g.masters, &g.mastersIn, &g.mastersOut} {
		for h := 0; h < n; h++ {
			lids := set.lists[h]
			out = binary.LittleEndian.AppendUint32(out, uint32(len(lids)))
			for _, lid := range lids {
				out = binary.LittleEndian.AppendUint32(out, lid)
			}
		}
	}
	return out
}

// importMemo inverts ExportMemo, validating every local ID against the
// partition (it must name a master proxy) and every order as strictly
// ascending, so a stale or foreign checkpoint fails loudly instead of
// corrupting the exchange orders.
func (g *Gluon) importMemo(data []byte) error {
	p := g.Part
	n := p.NumHosts
	if len(data) < 4 {
		return fmt.Errorf("gluon: memo section too short (%d bytes)", len(data))
	}
	if got := int(binary.LittleEndian.Uint32(data)); got != n {
		return fmt.Errorf("gluon: memo section is for %d hosts, cluster has %d", got, n)
	}
	off := 4
	sets := make([][][]uint32, 3)
	for s := 0; s < 3; s++ {
		lists := make([][]uint32, n)
		for h := 0; h < n; h++ {
			if off+4 > len(data) {
				return fmt.Errorf("gluon: memo section truncated at host %d", h)
			}
			cnt := int(binary.LittleEndian.Uint32(data[off:]))
			off += 4
			if off+4*cnt > len(data) {
				return fmt.Errorf("gluon: memo section truncated in host %d order", h)
			}
			if cnt == 0 {
				continue
			}
			lids := make([]uint32, cnt)
			for i := range lids {
				lid := binary.LittleEndian.Uint32(data[off:])
				off += 4
				if lid >= p.NumProxies() || !p.IsMaster(lid) {
					return fmt.Errorf("gluon: memo section names lid %d which is not a master here", lid)
				}
				if i > 0 && lid <= lids[i-1] {
					return fmt.Errorf("gluon: memo section order for host %d is not strictly ascending (lid %d after %d)", h, lid, lids[i-1])
				}
				lids[i] = lid
			}
			lists[h] = lids
		}
		sets[s] = lists
	}
	if off != len(data) {
		return fmt.Errorf("gluon: %d trailing bytes in memo section", len(data)-off)
	}
	g.masters = newOrderSet(sets[0])
	g.mastersIn = newOrderSet(sets[1])
	g.mastersOut = newOrderSet(sets[2])
	return nil
}

// NewRestored builds the substrate for a host resuming from a checkpoint:
// the mirror-side orders are recomputed locally and the master-side orders
// come from the checkpoint's memo section (ExportMemo), so no memoization
// exchange runs — the peers are holding at the rejoin rendezvous and could
// not answer one.
func NewRestored(p *partition.Partition, t comm.Transport, opt Options, memo []byte) (*Gluon, error) {
	if p.HostID != t.HostID() || p.NumHosts != t.NumHosts() {
		return nil, fmt.Errorf("gluon: partition host %d/%d does not match transport %d/%d",
			p.HostID, p.NumHosts, t.HostID(), t.NumHosts())
	}
	g := &Gluon{Part: p, T: t, Opt: opt}
	mirrors, mirrorsIn, mirrorsOut := g.localMirrors()
	g.mirrors = newOrderSet(mirrors)
	g.mirrorsIn = newOrderSet(mirrorsIn)
	g.mirrorsOut = newOrderSet(mirrorsOut)
	if err := g.importMemo(memo); err != nil {
		return nil, err
	}
	return g, nil
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

// VerifyMemoization cross-checks the memoized orders between all hosts by
// re-exchanging GID digests; used by tests and the partition inspector.
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
