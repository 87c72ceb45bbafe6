package gluon

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"gluon/internal/comm"
	"gluon/internal/partition"
)

// perGIDOrders is the memoization this package used before mirrors became
// contiguous LID ranges: group mirror GIDs by Owner(), translate each one
// through Partition.LID, and look each peer's claimed GID up on the master
// side. The range-based memoize must produce the same six order families.
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

// TestNewRestoredRoundTripsExportMemo: a substrate rebuilt from its own
// exported memo section has the same exchange orders and re-exports the
// same bytes — and a section that was tampered with is refused, not turned
// into exchange orders the masks cannot represent.
func TestNewRestoredRoundTripsExportMemo(t *testing.T) {
	for _, kind := range partition.AllKinds() {
		for _, g := range buildCluster(t, kind, 4, Opt()) {
			memo := g.ExportMemo()
			r, err := NewRestored(g.Part, g.T, g.Opt, memo)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name      string
				got, want orderSet
			}{
				{"mirrors", r.mirrors, g.mirrors}, {"mirrorsIn", r.mirrorsIn, g.mirrorsIn}, {"mirrorsOut", r.mirrorsOut, g.mirrorsOut},
				{"masters", r.masters, g.masters}, {"mastersIn", r.mastersIn, g.mastersIn}, {"mastersOut", r.mastersOut, g.mastersOut},
			} {
				if !sameLists(c.got.lists, c.want.lists) || !reflect.DeepEqual(c.got.whole, c.want.whole) || !reflect.DeepEqual(c.got.cut, c.want.cut) {
					t.Fatalf("%s host %d: restored %s differs", kind, g.HostID(), c.name)
				}
			}
			if !bytes.Equal(r.ExportMemo(), memo) {
				t.Fatalf("%s host %d: re-exported memo differs", kind, g.HostID())
			}
		}
	}

	g := buildCluster(t, partition.OEC, 2, Opt())[1]
	memo := g.ExportMemo()
	// Layout: u32 hosts, then host 0's masters order: u32 count, u32 lids.
	const first = 4 + 4
	if binary.LittleEndian.Uint32(memo[4:]) < 2 {
		t.Fatal("fixture: host 1 has fewer than two masters mirrored on host 0")
	}
	edit := func(f func(m []byte) []byte) []byte { return f(bytes.Clone(memo)) }
	for name, bad := range map[string][]byte{
		"unsorted order": edit(func(m []byte) []byte {
			copy(m[first:], memo[first+4:first+8])
			copy(m[first+4:], memo[first:first+4])
			return m
		}),
		"duplicate lid": edit(func(m []byte) []byte { copy(m[first+4:], memo[first:first+4]); return m }),
		"mirror lid": edit(func(m []byte) []byte {
			binary.LittleEndian.PutUint32(m[first:], g.Part.NumMasters)
			return m
		}),
		"wrong host count": edit(func(m []byte) []byte { m[0]++; return m }),
		"truncated":        memo[:len(memo)-2],
		"trailing bytes":   append(bytes.Clone(memo), 0),
	} {
		if _, err := NewRestored(g.Part, g.T, g.Opt, bad); err == nil {
			t.Errorf("tampered memo section (%s) accepted", name)
		}
	}
}

// TestMemoizeRejectsBadPeerMessage: the master side's range check (which
// replaced a map lookup) rejects a GID this host does not own, GIDs that do
// not strictly ascend (the agreed order every mask is built on), and a
// count that disagrees with the message length is an error, not a panic.
func TestMemoizeRejectsBadPeerMessage(t *testing.T) {
	part := buildCluster(t, partition.OEC, 2, Opt())[0].Part
	foreign := part.Policy.Bounds()[1] // first node of host 1's range
	entry := func(count uint32, gids ...uint64) []byte {
		msg := binary.LittleEndian.AppendUint32(nil, count)
		for _, gid := range gids {
			msg = append(binary.LittleEndian.AppendUint64(msg, gid), 0)
		}
		return msg
	}
	for name, msg := range map[string][]byte{
		"foreign gid":     entry(1, foreign),
		"gid past graph":  entry(1, part.GlobalNodes+3),
		"count too big":   entry(5, 0),
		"no count":        {1, 0},
		"descending gids": entry(2, 1, 0),
		"duplicate gid":   entry(2, 1, 1),
	} {
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
