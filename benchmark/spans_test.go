package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// mk builds a closed span for the fold tests; lane 1 is host 0.
func mk(idx int, parent int64, name string, start, end int64) span {
	return span{ID: spanID(1, idx), Parent: parent, Name: name, Round: -1, Start: start, End: end}
}

func TestSelfTimesNesting(t *testing.T) {
	spans := []span{
		mk(0, 0, "host", 0, 100),
		mk(1, spanID(1, 0), "sync", 10, 60),
		mk(2, spanID(1, 1), "recv_wait", 20, 30),
		mk(3, spanID(1, 1), "recv_wait", 30, 45), // starts the instant its sibling ends
		mk(4, spanID(1, 0), "compute", 60, 90),
	}
	got := selfTimes(spans)
	want := []int64{10 + 10, 50 - 25, 10, 15, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s #%d] = %d, want %d", spans[i].Name, i, got[i], want[i])
		}
	}
}

// Overlapping siblings (a helper goroutine sends while the main goroutine
// waits) are counted once: the children never exceed the parent.
func TestSelfTimesOverlappingSiblings(t *testing.T) {
	spans := []span{
		mk(0, 0, "sync", 0, 100),
		mk(1, spanID(1, 0), "send", 10, 50),
		mk(2, spanID(1, 0), "recv_wait", 30, 70),
		mk(3, spanID(1, 0), "send", 40, 45), // inside both
	}
	got := selfTimes(spans)
	want := []int64{10 + 30, 20, 40 - 5, 5}
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
	if children := sum - got[0]; children > spans[0].End-spans[0].Start {
		t.Errorf("children cover %d of a parent of 100", children)
	}
}

func TestSelfTimesSkipsOpenSpans(t *testing.T) {
	spans := []span{mk(0, 0, "host", 0, 50), {ID: spanID(1, 1), Name: "sync", Start: 10, End: -1}}
	if got := selfTimes(spans); got[0] != 50 || got[1] != 0 {
		t.Errorf("self = %v, want [50 0]", got)
	}
}

// Hosts record at once, and so do one host's helper goroutines.
func TestRecorderConcurrentHosts(t *testing.T) {
	const hosts, helpers, perHelper = 4, 3, 200
	rec := newRecorder(hosts)
	rec.begin("run-1")
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		root := rec.open(h, "host", 0, -1)
		for g := 0; g < helpers; g++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				for i := 0; i < perHelper; i++ {
					id := rec.open(h, "sync", root, int32(i))
					rec.leaf(h, "send", id, int32(i), rec.now(), false, 8)
					rec.close(id, 0)
				}
			}(h)
		}
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, s := range rec.all() {
		if seen[s.ID] {
			t.Fatalf("span ID %d used twice", s.ID)
		}
		seen[s.ID] = true
		if s.Run != "run-1" {
			t.Fatalf("span %d has run %q", s.ID, s.Run)
		}
		if s.Name != "host" && s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for h := 0; h < hosts; h++ {
		if n := len(rec.lanes[1+h].spans); n != 1+2*helpers*perHelper {
			t.Errorf("host %d recorded %d spans, want %d", h, n, 1+2*helpers*perHelper)
		}
	}
	rec.begin("run-2")
	if n := len(rec.all()); n != 0 {
		t.Errorf("%d spans left after begin", n)
	}
}

// A layer is charged, round by round, the slowest host's self time.
func TestLayerTimesTakesSlowestHostPerRound(t *testing.T) {
	rec := newRecorder(2)
	add := func(host int, name string, round int32, start, end int64) {
		_, l := rec.laneOf(host)
		l.spans = append(l.spans, span{ID: spanID(host+1, len(l.spans)), Host: host, Name: name,
			Round: round, Start: start, End: end})
	}
	add(0, "host", -1, 0, 100)
	add(0, "compute", 0, 0, 30) // host 0 is slower in round 0
	add(0, "compute", 1, 50, 60)
	add(1, "host", -1, 0, 90)
	add(1, "compute", 0, 0, 10)
	add(1, "compute", 1, 50, 90) // host 1 is slower in round 1
	fold := layerTimes(rec)
	secs, gating, accounted := fold.secs, fold.gating, fold.accounted
	if got, want := secs[layerCompute], 70e-9; got != want {
		t.Errorf("compute_s = %g, want %g", got, want)
	}
	if gating.wall != 100 {
		t.Errorf("gating host wall = %d, want host 0's 100", gating.wall)
	}
	if got, want := secs[layerOther], 60e-9; got != want {
		t.Errorf("bsp_other_s = %g, want the gating host's %g", got, want)
	}
	if accounted != 1 {
		t.Errorf("accounted = %g, want 1", accounted)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		s      span
		parent string
		want   string
	}{
		{span{Name: "send"}, "sync", layerSend},
		{span{Name: "send", Reserved: true}, "term", layerSendRsvd},
		{span{Name: "recv_wait", Reserved: true}, "term", layerTermWait},
		{span{Name: "recv_wait", Reserved: true}, "memoize", layerMemoize},
		{span{Name: "recv_wait"}, "init", layerRecvWait},
		{span{Name: "finalize"}, "host", layerSyncSelf},
		{span{Name: "term"}, "round", layerOther},
	} {
		if got := layerOf(&c.s, c.parent); got != c.want {
			t.Errorf("layerOf(%s under %s) = %s, want %s", c.s.Name, c.parent, got, c.want)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	in := []span{
		{ID: spanID(0, 0), Run: "r", Host: -1, Name: "run", Round: -1, Start: 1, End: 9, Count: 3},
		{ID: spanID(1, 0), Parent: spanID(0, 0), Run: "r", Name: "send", Round: 2, Start: 2, End: 3, Reserved: true, Count: 64},
	}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for i := 0; sc.Scan(); i++ {
		var got span
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != in[i] {
			t.Errorf("line %d = %+v, want %+v", i, got, in[i])
		}
	}
}
