package gluon

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"gluon/internal/comm"
	"gluon/internal/partition"
)

// perGIDOrders is the memoization this package used before mirrors became
// contiguous LID ranges: group mirror GIDs by Owner(), translate each one
// through Partition.LID, and look each peer's claimed GID up on the master
// side. The range-based Memoize must produce the same six order families.
func perGIDOrders(gs []*Gluon, me int) (mirrors, mirrorsIn, mirrorsOut, masters, mastersIn, mastersOut [][]uint32) {
	n := len(gs)
	lists := func() [][]uint32 { return make([][]uint32, n) }
	mirrors, mirrorsIn, mirrorsOut = lists(), lists(), lists()
	masters, mastersIn, mastersOut = lists(), lists(), lists()
	add := func(all, in, out [][]uint32, h int, lid uint32, hasIn, hasOut bool) {
		all[h] = append(all[h], lid)
		if hasIn {
			in[h] = append(in[h], lid)
		}
		if hasOut {
			out[h] = append(out[h], lid)
		}
	}
	p := gs[me].Part
	for lid := p.NumMasters; lid < p.NumProxies(); lid++ {
		add(mirrors, mirrorsIn, mirrorsOut, p.Policy.Owner(p.GID(lid)), lid, p.HasIn.Test(lid), p.HasOut.Test(lid))
	}
	for h := range gs {
		q := gs[h].Part // the flags that travel are the mirror's, not the master's
		for mlid := q.NumMasters; h != me && mlid < q.NumProxies(); mlid++ {
			if q.Policy.Owner(q.GID(mlid)) != me {
				continue
			}
			lid, ok := p.LID(q.GID(mlid))
			if !ok {
				panic("peer mirrors a node this host has no master for")
			}
			add(masters, mastersIn, mastersOut, h, lid, q.HasIn.Test(mlid), q.HasOut.Test(mlid))
		}
	}
	return
}

// sameLists compares per-peer orders, an absent order equal to an empty one.
func sameLists(a, b [][]uint32) bool {
	return slices.EqualFunc(a, b, func(x, y []uint32) bool { return slices.Equal(x, y) })
}

// TestMemoizeMatchesPerGIDTranslation: every memoized order equals the
// per-GID reference, for every policy and a host count that leaves some
// pairs without shared proxies.
func TestMemoizeMatchesPerGIDTranslation(t *testing.T) {
	for _, kind := range partition.AllKinds() {
		for _, hosts := range []int{2, 4, 7} {
			gs := buildCluster(t, kind, hosts, Opt())
			for me, g := range gs {
				mirrors, mirrorsIn, mirrorsOut, masters, mastersIn, mastersOut := perGIDOrders(gs, me)
				for _, c := range []struct {
					name      string
					got, want [][]uint32
				}{
					{"mirrors", g.mirrors.lists, mirrors},
					{"mirrorsIn", g.mirrorsIn.lists, mirrorsIn},
					{"mirrorsOut", g.mirrorsOut.lists, mirrorsOut},
					{"masters", g.masters.lists, masters},
					{"mastersIn", g.mastersIn.lists, mastersIn},
					{"mastersOut", g.mastersOut.lists, mastersOut},
				} {
					if !sameLists(c.got, c.want) {
						t.Fatalf("%s/%d hosts: host %d %s:\n got %v\nwant %v", kind, hosts, me, c.name, c.got, c.want)
					}
				}
			}
		}
	}
}

// badMemoMessages are TagMemo payloads that host 0 of part's cluster must
// refuse from host 1: a GID this host does not own, GIDs that do not
// strictly ascend (the agreed order every mask is built on), a count that
// disagrees with the message length either way, and a flag byte the
// encoder never writes.
func badMemoMessages(part *partition.Partition) map[string][]byte {
	foreign := part.Policy.Bounds()[1] // first node of host 1's range
	entry := func(count uint32, gids ...uint64) []byte {
		msg := binary.LittleEndian.AppendUint32(nil, count)
		for _, gid := range gids {
			msg = append(binary.LittleEndian.AppendUint64(msg, gid), 0)
		}
		return msg
	}
	unknownFlag := entry(1, 0)
	unknownFlag[len(unknownFlag)-1] = memoHasIn | memoHasOut | 4
	return map[string][]byte{
		"foreign gid":       entry(1, foreign),
		"gid past graph":    entry(1, part.GlobalNodes+3),
		"count too big":     entry(5, 0),
		"trailing bytes":    append(entry(1, 0), 0),
		"no count":          {1, 0},
		"descending gids":   entry(2, 1, 0),
		"duplicate gid":     entry(2, 1, 1),
		"unknown flag bits": unknownFlag,
	}
}

// TestMemoizeRejectsBadPeerMessage: the master side's range check (which
// replaced a map lookup) and the order, length and flag checks turn every
// bad message into an error, not a panic or an order.
func TestMemoizeRejectsBadPeerMessage(t *testing.T) {
	part := buildCluster(t, partition.OEC, 2, Opt())[0].Part
	for name, msg := range badMemoMessages(part) {
		hub := comm.NewHub(2)
		if err := hub.Endpoint(1).Send(0, comm.TagMemo, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := New(part, hub.Endpoint(0), Opt()); err == nil {
			t.Errorf("%s: accepted", name)
		}
		hub.Close()
	}
}

// FuzzMemo feeds arbitrary bytes to host 0 of a 2-host cluster as host 1's
// memoization message. No input may panic. An accepted one decodes into
// orders of masters that strictly ascend, with in and out subsets of all,
// and re-encoding those orders (GID and flag byte per entry) gives back the
// input bytes exactly.
func FuzzMemo(f *testing.F) {
	gs := buildCluster(f, partition.OEC, 2, Opt())
	part := gs[0].Part
	f.Add(encodeMemo(gs[1].Part, gs[1].mirrors.lists[0]))
	for _, msg := range badMemoMessages(part) {
		f.Add(msg)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		all, in, out, err := decodeMemo(part, 1, payload)
		if err != nil {
			return
		}
		for _, order := range [][]uint32{all, in, out} {
			for i, lid := range order {
				if !part.IsMaster(lid) {
					t.Fatalf("lid %d is not a master", lid)
				}
				if i > 0 && lid <= order[i-1] {
					t.Fatalf("order not strictly ascending: %v", order)
				}
			}
		}
		has := func(order []uint32, lid uint32) bool {
			_, ok := slices.BinarySearch(order, lid)
			return ok
		}
		for _, lid := range append(slices.Clone(in), out...) {
			if !has(all, lid) {
				t.Fatalf("lid %d in a subset but not in all", lid)
			}
		}
		msg := binary.LittleEndian.AppendUint32(nil, uint32(len(all)))
		for _, lid := range all {
			var flags byte
			if has(in, lid) {
				flags |= memoHasIn
			}
			if has(out, lid) {
				flags |= memoHasOut
			}
			msg = append(binary.LittleEndian.AppendUint64(msg, part.GID(lid)), flags)
		}
		if !bytes.Equal(msg, payload) {
			t.Fatalf("re-encoded %x, input %x", msg, payload)
		}
	})
}
