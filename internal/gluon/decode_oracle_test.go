package gluon

// The element-at-a-time decoder the sync core used until the value path
// became slice-shaped, kept as the oracle for the decoder that replaced it:
// the same bytes must get the same verdict from both and, when accepted, the
// same (lid, value) sequence in the same order. The one intended difference
// is on reject — the oracle has applied a prefix by the time it finds some
// errors, decodeBody hands back nothing.

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"testing"

	"gluon/internal/bitset"
	"gluon/internal/fields"
	"gluon/internal/partition"
)

// getOne reads one little-endian V: the per-value type dispatch the
// production path no longer has.
func getOne[V Value](b []byte) V {
	var v any
	switch any(*new(V)).(type) {
	case uint32:
		v = le.Uint32(b)
	case uint64:
		v = le.Uint64(b)
	default:
		v = math.Float64frombits(le.Uint64(b))
	}
	return v.(V)
}

func decodeBodyOracle[V Value](g *Gluon, payload []byte, order []uint32, apply func(lid uint32, v V)) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty payload")
	}
	vs := wireSize[V]()
	mode := payload[0]
	body := payload[1:]
	switch mode {
	case modeEmpty:
		return nil
	case modeDense:
		if len(body) != len(order)*vs {
			return fmt.Errorf("dense message: %d bytes for %d proxies of size %d", len(body), len(order), vs)
		}
		off := 0
		for _, lid := range order {
			apply(lid, getOne[V](body[off:]))
			off += vs
		}
	case modeBitvec:
		if len(body) < 4 {
			return fmt.Errorf("short bitvec message")
		}
		k := le.Uint32(body)
		n := len(order)
		bvWords := (n + 63) / 64
		if len(body) != 4+bvWords*8+int(k)*vs {
			return fmt.Errorf("bitvec message: %d bytes, want %d", len(body), 4+bvWords*8+int(k)*vs)
		}
		valOff := 4 + bvWords*8
		applied := uint32(0)
		for wi := 0; wi < bvWords; wi++ {
			w := le.Uint64(body[4+wi*8:])
			base := wi * wordBits
			for w != 0 {
				pos := base + bits.TrailingZeros64(w)
				if applied >= k {
					return fmt.Errorf("bitvec message: more set bits than count %d", k)
				}
				if pos >= n {
					return fmt.Errorf("bitvec message: position %d out of %d", pos, n)
				}
				apply(order[pos], getOne[V](body[valOff:]))
				valOff += vs
				applied++
				w &= w - 1
			}
		}
		if applied != k {
			return fmt.Errorf("bitvec message: %d set bits, count says %d", applied, k)
		}
	case modeIndices:
		if len(body) < 4 {
			return fmt.Errorf("short indices message")
		}
		k := int(le.Uint32(body))
		if len(body) != 4+k*4+k*vs {
			return fmt.Errorf("indices message: %d bytes, want %d", len(body), 4+k*4+k*vs)
		}
		idxOff, valOff := 4, 4+k*4
		for i := 0; i < k; i++ {
			pos := le.Uint32(body[idxOff:])
			if int(pos) >= len(order) {
				return fmt.Errorf("indices message: position %d out of %d", pos, len(order))
			}
			apply(order[pos], getOne[V](body[valOff:]))
			idxOff += 4
			valOff += vs
		}
	case modeGIDs:
		if len(body) < 4 {
			return fmt.Errorf("short gid-pairs message")
		}
		k := int(le.Uint32(body))
		if len(body) != 4+k*(8+vs) {
			return fmt.Errorf("gid-pairs message: %d bytes, want %d", len(body), 4+k*(8+vs))
		}
		off := 4
		for i := 0; i < k; i++ {
			gid := le.Uint64(body[off:])
			v := getOne[V](body[off+8:])
			off += 8 + vs
			lid, ok := g.Part.LID(gid)
			if !ok {
				return fmt.Errorf("gid-pairs message: gid %d has no local proxy", gid)
			}
			apply(lid, v)
		}
	default:
		return fmt.Errorf("unknown message mode %d", mode)
	}
	return nil
}

// diffDecode feeds body to both decoders and reports how they disagree, ""
// when they do not. Values are compared as wire bytes, so NaNs compare by
// payload.
func diffDecode[V Value](g *Gluon, body []byte, order []uint32, ps *peerScratch) string {
	var wantLids []uint32
	var wantVals []V
	wantErr := decodeBodyOracle(g, body, order, func(lid uint32, v V) {
		wantLids = append(wantLids, lid)
		wantVals = append(wantVals, v)
	})
	lids, vals, err := decodeBody[V](g, body, order, ps)
	if (err == nil) != (wantErr == nil) {
		return fmt.Sprintf("verdict: decodeBody says %v, the oracle %v", err, wantErr)
	}
	if err != nil {
		if lids != nil || vals != nil {
			return fmt.Sprintf("rejected (%v) but handed back %d lids, %d values to apply", err, len(lids), len(vals))
		}
		return ""
	}
	if len(lids) != len(wantLids) || len(vals) != len(wantVals) {
		return fmt.Sprintf("%d lids and %d values, the oracle applied %d", len(lids), len(vals), len(wantLids))
	}
	vs := wireSize[V]()
	got, want := make([]byte, len(vals)*vs), make([]byte, len(vals)*vs)
	putVals(got, 0, vs, vals)
	putVals(want, 0, vs, wantVals)
	for i := range lids {
		if lids[i] != wantLids[i] || !bytes.Equal(got[i*vs:(i+1)*vs], want[i*vs:(i+1)*vs]) {
			return fmt.Sprintf("pair %d: (%d, %v), the oracle applied (%d, %v)", i, lids[i], vals[i], wantLids[i], wantVals[i])
		}
	}
	return ""
}

// decodeFixture is the order both decoder tests decode against and one
// valid message per wire mode over it.
type decodeFixture struct {
	g     *Gluon
	order []uint32
}

func newDecodeFixture(tb testing.TB) decodeFixture {
	g := mustSingleGluon(tb)
	order := make([]uint32, 500) // not a multiple of 64: the last bit-vector word has a tail
	for i := range order {
		order[i] = uint32(3 * i)
	}
	return decodeFixture{g, order}
}

// messages encodes one message per mode — empty, dense,
// bitvec, indices, gid-pairs — with vals(lid) at lids 21 and 300.
func messages[V Value](f decodeFixture, vals func(lid uint32) V) [][]byte {
	some := bitset.New(f.g.Part.NumProxies())
	some.SetUnsync(21)
	some.SetUnsync(300)
	forced := func(e Encoding) Options { o := Opt(); o.ForceEncoding = e; return o }
	var out [][]byte
	for _, c := range []struct {
		opt Options
		upd *bitset.Bitset
	}{
		{Opt(), bitset.New(f.g.Part.NumProxies())},
		{forced(EncodingDense), some},
		{forced(EncodingBitvec), some},
		{forced(EncodingIndices), some},
		{Unopt(), some},
	} {
		f.g.Opt = c.opt
		payload, _, _ := encodeMsg(f.g, f.order, bitset.NewOrderMask(f.order), c.upd, extractFunc[V](vals), &encodeScratch{})
		out = append(out, payload)
	}
	f.g.Opt = Opt()
	return out
}

// decoderTable runs every mode's valid message, every truncation of it by
// one value, and the two mutations that used to apply a prefix, through
// both decoders.
func decoderTable[V Value](vals func(lid uint32) V) func(*testing.T) {
	return func(t *testing.T) {
		f := newDecodeFixture(t)
		ps := &peerScratch{}
		vs := wireSize[V]()
		msgs := messages(f, vals)
		for i, m := range msgs {
			if m[0] != byte(i) {
				t.Fatalf("fixture: message %d has mode %d", i, m[0])
			}
			if d := diffDecode[V](f.g, m, f.order, ps); d != "" {
				t.Errorf("mode %d: %s", i, d)
			}
			if lids, _, err := decodeBody[V](f.g, m, f.order, ps); err != nil || (i != int(modeEmpty) && len(lids) == 0) {
				t.Errorf("mode %d: valid message decoded to %d lids, err %v", i, len(lids), err)
			}
			for _, size := range []int{len(m) - 1, len(m) - vs, len(m) + 1} {
				if size < 0 {
					continue
				}
				resized := append(bytes.Clone(m), 0)[:size]
				if d := diffDecode[V](f.g, resized, f.order, ps); d != "" {
					t.Errorf("mode %d at %d of %d bytes: %s", i, size, len(m), d)
				}
			}
		}

		mutate := func(name string, m []byte, edit func(m []byte)) {
			m = bytes.Clone(m)
			edit(m)
			if d := diffDecode[V](f.g, m, f.order, ps); d != "" {
				t.Errorf("%s: %s", name, d)
			}
			if _, _, err := decodeBody[V](f.g, m, f.order, ps); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}
		// The valid bit-vector has positions 7 and 100 set (lids 21 and 300)
		// and starts at m[5]. One more bit than the count admits, after the
		// two counted ones: the oracle has applied both values when it
		// notices.
		setBit := func(m []byte, pos int) { m[5+pos/8] |= 1 << (pos % 8) }
		mutate("bitvec popcount above count", msgs[modeBitvec], func(m []byte) { setBit(m, 480) })
		// Position 500 is past the order but inside the last word; position 7
		// goes so that count == popcount and only the range check can object.
		mutate("bitvec bit in the tail of the last word", msgs[modeBitvec], func(m []byte) {
			setBit(m, 500)
			m[5] &^= 1 << 7
		})
		// A late out-of-range position: the oracle has applied the first value.
		mutate("indices second position out of range", msgs[modeIndices], func(m []byte) { le.PutUint32(m[5+4:], 500) })
		mutate("gid pairs second gid unknown", msgs[modeGIDs], func(m []byte) { le.PutUint64(m[5+8+vs:], 1<<40) })
	}
}

// TestDecodeMatchesOracle: all five modes × three value types, valid and
// broken.
func TestDecodeMatchesOracle(t *testing.T) {
	t.Run("uint32", decoderTable(func(lid uint32) uint32 { return lid * 7 }))
	t.Run("uint64", decoderTable(func(lid uint32) uint64 { return uint64(lid)<<33 | 1 }))
	t.Run("float64", decoderTable(func(lid uint32) float64 {
		if lid == 300 {
			return math.Float64frombits(0x7ff8000000000123) // a NaN with a payload
		}
		return float64(lid) / 7
	}))
}

// FuzzDecodeBody: whatever bytes a peer sends, decodeBody and the oracle
// agree on them — same verdict, same (lid, value) sequence on accept,
// nothing handed back on reject — and decoding never panics or names a lid
// outside the order (outside the local proxies, for the order-free
// gid-pairs format). Seeds: one valid message per mode.
func FuzzDecodeBody(f *testing.F) {
	fx := newDecodeFixture(f)
	g, order := fx.g, fx.order
	inOrder := map[uint32]bool{}
	for _, lid := range order {
		inOrder[lid] = true
	}
	src := func(lid uint32) uint32 { return lid * 7 }
	for _, m := range messages(fx, src) {
		f.Add(m)
	}
	ps := &peerScratch{}
	f.Fuzz(func(t *testing.T, body []byte) {
		if d := diffDecode[uint32](g, body, order, ps); d != "" {
			t.Fatal(d)
		}
		gidPairs := len(body) > 0 && body[0] == modeGIDs
		lids, _, _ := decodeBody[uint32](g, body, order, ps)
		for _, lid := range lids {
			if !inOrder[lid] && !(gidPairs && lid < g.Part.NumProxies()) {
				t.Fatalf("decoded lid %d, which is not in the order", lid)
			}
		}
	})
}

// TestMalformedMessageAppliesNothing: a reduce message whose bit-vector has
// more set bits than its count is rejected by the receiving sync with every
// master and every updated bit as they were. (The element-at-a-time decoder
// lowered the first two masters before it returned the error.)
func TestMalformedMessageAppliesNothing(t *testing.T) {
	gs := buildCluster(t, partition.OEC, 2, Opt())
	g := gs[0]
	order := g.mastersIn.lists[1]
	if len(order) < 3 {
		t.Fatalf("fixture: host 0 receives only %d masters from host 1", len(order))
	}
	labels := make([]uint32, g.Part.NumProxies())
	for i := range labels {
		labels[i] = fields.InfinityU32
	}
	f := Field[uint32]{ID: 77, Name: "bad", Write: AtDestination, Read: AtSource, Reduce: fields.Min[uint32](labels)}

	// count 2, three bits set, two values.
	bvBytes := (len(order) + 63) / 64 * 8
	msg := make([]byte, 1+4+bvBytes+2*4)
	msg[0] = modeBitvec
	le.PutUint32(msg[1:], 2)
	msg[5] = 0b111
	le.PutUint32(msg[5+bvBytes:], 1)
	le.PutUint32(msg[5+bvBytes+4:], 2)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := gs[1].T.Send(0, g.reduceTag(f.ID), msg); err != nil {
			t.Error(err)
		}
	}()
	updated := bitset.New(g.Part.NumProxies())
	err := Sync(g, f, updated)
	wg.Wait()
	g.WaitSends()
	if err == nil {
		t.Fatal("malformed reduce message accepted")
	}
	for _, lid := range order {
		if labels[lid] != fields.InfinityU32 || updated.Test(lid) {
			t.Fatalf("master %d: label %d, updated %v after a rejected message", lid, labels[lid], updated.Test(lid))
		}
	}
}
