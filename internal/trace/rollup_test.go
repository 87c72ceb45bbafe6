package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fixtureTrace loads a committed export: bfs4 is a 4-host bfs run with two
// injected-delay fault instants, pr4z a 4-host pagerank run written by a
// build that still had the DEFLATE tier (see TestOldTraceStillLoads).
func fixtureTrace(t testing.TB, name string) ([]Event, Meta) {
	t.Helper()
	events, meta, err := ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return events, meta
}

// TestOldTraceStillLoads: pr4z's encode events carry the comp and saved keys
// of the DEFLATE tier, which no Event field takes any more. The export must
// load with the keys ignored (its goldens pin what it loads to).
func TestOldTraceStillLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pr4z.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"comp":`)) || !bytes.Contains(raw, []byte(`"saved":`)) {
		t.Fatal("pr4z.json carries no comp/saved keys: it is no longer an old trace")
	}
	if events, _ := fixtureTrace(t, "pr4z.json"); len(events) == 0 {
		t.Fatal("pr4z.json loaded no events")
	}
}

// renderViews renders every report the fold backs, keyed by name.
func renderViews(t *testing.T, r *Rollup, meta Meta) map[string]string {
	t.Helper()
	out := map[string]string{}
	text := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.String()
	}
	asJSON := func(name string, v any) {
		text(name, func(b *bytes.Buffer) error { return json.NewEncoder(b).Encode(v) })
	}
	s, cp := r.Summary(meta), r.CriticalPath(meta.Label, 0)
	text("tables", func(b *bytes.Buffer) error { return s.WriteTables(b) })
	asJSON("tables.json", s)
	text("critical", func(b *bytes.Buffer) error { return cp.WriteTables(b) })
	asJSON("critical.json", cp)
	asJSON("view-update", r.view(3))
	return out
}

// TestRollupBatchesMatchWhole pins "views cannot disagree" across feeding
// patterns: folding a stream as ragged per-host batches — hosts advancing
// round-robin in different-sized chunks, each on a skewed private clock whose
// inverse offset Add applies, the way shipper flushes reach a collector —
// renders every view exactly as folding the stream whole does.
func TestRollupBatchesMatchWhole(t *testing.T) {
	streams := map[string][]Event{"synthetic": goldenTimeline()}
	metas := map[string]Meta{"synthetic": {Label: "synthetic"}}
	for _, f := range []string{"bfs4.json", "pr4z.json"} {
		streams[f], metas[f] = fixtureTrace(t, f)
	}
	skew := func(h int32) int64 { return int64(h)*7919 - 5000 }
	for name, events := range streams {
		want := renderViews(t, rollupOf(metas[name], events), metas[name])
		byHost := map[int32][]Event{}
		var hosts []int32
		for _, e := range events {
			if _, seen := byHost[e.Host]; !seen {
				hosts = append(hosts, e.Host)
			}
			e.Start -= skew(e.Host)
			byHost[e.Host] = append(byHost[e.Host], e)
		}
		for _, chunks := range [][]int{{1}, {1, 3, 2}, {5, 1, 2, 4}, {2, 6}} {
			r := NewRollup()
			pos := map[int32]int{}
			for progressed := true; progressed; {
				progressed = false
				for i, h := range hosts {
					lo := pos[h]
					hi := min(lo+chunks[i%len(chunks)], len(byHost[h]))
					if lo == hi {
						continue
					}
					r.Add(byHost[h][lo:hi], skew(h))
					pos[h], progressed = hi, true
				}
			}
			r.Finish()
			for view, got := range renderViews(t, r, metas[name]) {
				if got != want[view] {
					t.Errorf("%s in chunks of %v: %s differs from the whole-stream fold:\n%s\nwant:\n%s", name, chunks, view, got, want[view])
				}
			}
		}
	}
}

// FuzzRollupAdd: the fold takes events from files and sideband peers, so no
// field value may panic it, and the three places a byte total is reported
// must agree whatever went in.
func FuzzRollupAdd(f *testing.F) {
	f.Add(int64(100), int64(40), uint64(64), uint64(8), uint64(0), uint32(90), int32(1), int32(3), int32(2), uint8(PhaseEncode), int8(1))
	f.Add(int64(0), int64(-5), uint64(1)<<63, uint64(1)<<63, uint64(7), uint32(0), int32(-1), int32(-1), int32(-1), uint8(200), int8(-3))
	f.Add(int64(-1), int64(1), uint64(5), uint64(0), uint64(0), uint32(1), int32(0), int32(1<<31-1), int32(0), uint8(PhaseBarrier), int8(NumModes))
	f.Fuzz(func(t *testing.T, start, dur int64, value, meta, gid uint64, field uint32, host, round, peer int32, phase uint8, mode int8) {
		e := Event{Start: start, Dur: dur, Value: value, Meta: meta, GID: gid, Field: field,
			Host: host, Round: round, Peer: peer, Phase: Phase(phase), Mode: mode}
		// The same tags again as a sync message of the init round, of the next
		// round, and from a second host, so the channel, peer and frontier
		// paths all see the values.
		memo, next, other := e, e, e
		memo.Phase, memo.Round = PhaseEncode, -1
		next.Phase, next.Round = PhaseEncode, round+1
		other.Host, other.Phase = host+1, PhaseCompute
		r := NewRollup()
		r.Add([]Event{e, memo}, start)
		r.Add([]Event{other, next}, -start)
		r.Finish()

		s, cp := r.Summary(Meta{}), r.CriticalPath("", 0)
		var initBytes, rowBytes uint64
		for _, row := range s.Rounds {
			rowBytes += row.Value + row.Meta + row.GID
			if row.Round < 0 {
				initBytes += row.Value + row.Meta + row.GID
			}
		}
		if rowBytes != s.TotalBytes() || s.TotalBytes() != cp.Ledger.ShippedBytes+initBytes {
			t.Fatalf("byte totals disagree: summary %d, its round rows %d, ledger %d + init %d",
				s.TotalBytes(), rowBytes, cp.Ledger.ShippedBytes, initBytes)
		}
		var buf bytes.Buffer
		if err := s.WriteTables(&buf); err != nil {
			t.Fatal(err)
		}
		if err := cp.WriteTables(&buf); err != nil {
			t.Fatal(err)
		}
	})
}
