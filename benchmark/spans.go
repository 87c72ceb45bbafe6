package main

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into a layer (never inside the program).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Run    string `json:"run"`    // shared by every span of one traced rep
	Host   int    `json:"host"`   // -1 for spans of the whole workload
	Name   string `json:"name"`
	Round  int32  `json:"round"` // -1 outside the BSP rounds
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Reserved marks a transport span on a runtime tag (barrier,
	// all-reduce, memoization) rather than a field-sync data tag.
	Reserved bool `json:"reserved,omitempty"`
	// Count is the work counted at this boundary: bytes for send and
	// recv_wait, frontier population for compute, edges for generate.
	Count uint64 `json:"count,omitempty"`
}

// lane holds the spans of one host (or of the workload). Helper goroutines
// of a host send concurrently with its main goroutine, hence the lock.
type lane struct {
	mu    sync.Mutex
	spans []span
}

// recorder keeps spans in memory until the workload ends. lanes[0] is the
// workload lane (host -1: the set-up reps and one run span per traced rep)
// and is kept whole; lanes[1+h] is host h's and holds the latest traced rep
// only, since a bfs rep alone is ~150 k spans.
type recorder struct {
	run   string // stamped on every span opened from now on
	epoch time.Time
	lanes []*lane
}

func newRecorder(hosts int) *recorder {
	r := &recorder{epoch: time.Now(), lanes: make([]*lane, hosts+1)}
	for i := range r.lanes {
		r.lanes[i] = &lane{}
	}
	return r
}

// begin starts a new set-up or traced rep under a run ID of its own. The
// host lanes are emptied but keep their buffers, so that traced reps do not
// pay for growing them (which would count as trace overhead).
func (r *recorder) begin(run string) {
	r.run = run
	for _, l := range r.lanes[1:] {
		l.spans = l.spans[:0]
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Span IDs carry the lane in the high half so that lanes allocate them
// without sharing a counter.
func spanID(lane, idx int) int64 { return int64(lane+1)<<32 | int64(idx+1) }

func (r *recorder) laneOf(host int) (int, *lane) { return host + 1, r.lanes[host+1] }

// open starts a span on host's lane and returns its ID.
func (r *recorder) open(host int, name string, parent int64, round int32) int64 {
	li, l := r.laneOf(host)
	now := r.now()
	l.mu.Lock()
	id := spanID(li, len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Run: r.run, Host: host,
		Name: name, Round: round, Start: now, End: -1})
	l.mu.Unlock()
	return id
}

// close ends a span started by open, optionally attaching a count.
func (r *recorder) close(id int64, count uint64) {
	now := r.now()
	l := r.lanes[int(id>>32)-1]
	l.mu.Lock()
	s := &l.spans[int(id&0xffffffff)-1]
	s.End, s.Count = now, count
	l.mu.Unlock()
}

// leaf records a finished span in one step (transport calls).
func (r *recorder) leaf(host int, name string, parent int64, round int32, start int64, reserved bool, count uint64) {
	li, l := r.laneOf(host)
	now := r.now()
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: spanID(li, len(l.spans)), Parent: parent, Run: r.run, Host: host,
		Name: name, Round: round, Start: start, End: now, Reserved: reserved, Count: count})
	l.mu.Unlock()
}

// all returns every recorded span, lane by lane.
func (r *recorder) all() []span {
	var out []span
	for _, l := range r.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes attributes every instant of a lane to exactly one span and
// returns each span's share, indexed like spans.
//
// For properly nested spans this is the usual self time: a span's duration
// minus the part its children cover. A host's helper goroutines send while
// its main goroutine waits to receive, so sibling spans can overlap; an
// instant covered by several open spans goes to the one that started last,
// which keeps the nested case unchanged and counts an overlap once. The
// shares of a span and all its descendants therefore sum to the span's
// duration, and a host's shares sum to its run wall.
func selfTimes(spans []span) []int64 {
	type edge struct {
		t    int64
		idx  int
		open bool
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed: a failed run; contributes nothing
		}
		edges = append(edges, edge{s.Start, i, true}, edge{s.End, i, false})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return edges[a].idx < edges[b].idx
	})
	self := make([]int64, len(spans))
	closed := make([]bool, len(spans))
	active := &latestFirst{spans: spans}
	var prev int64
	for _, e := range edges {
		for active.Len() > 0 && closed[active.idx[0]] {
			heap.Pop(active)
		}
		if active.Len() > 0 {
			self[active.idx[0]] += e.t - prev
		}
		prev = e.t
		if e.open {
			heap.Push(active, e.idx)
		} else {
			closed[e.idx] = true
		}
	}
	return self
}

// latestFirst is a heap of span indexes ordered by latest start, then by
// latest recording (a child opened in the same nanosecond as its parent was
// recorded after it).
type latestFirst struct {
	spans []span
	idx   []int
}

func (h *latestFirst) Len() int { return len(h.idx) }
func (h *latestFirst) Less(a, b int) bool {
	sa, sb := h.spans[h.idx[a]].Start, h.spans[h.idx[b]].Start
	if sa != sb {
		return sa > sb
	}
	return h.idx[a] > h.idx[b]
}
func (h *latestFirst) Swap(a, b int) { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *latestFirst) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *latestFirst) Pop() any {
	n := len(h.idx)
	x := h.idx[n-1]
	h.idx = h.idx[:n-1]
	return x
}

// The layer a span's self time is charged to. Names are this repo's
// packages; see README.md for what each one contains.
const (
	layerMemoize  = "memoize_s"       // gluon: memoization exchange
	layerCompute  = "compute_s"       // engine: Init + Round
	layerSyncSelf = "sync_self_s"     // gluon: Sync/Finalize minus transport time
	layerSend     = "send_s"          // comm: Send/SendVec on data tags
	layerRecvWait = "recv_wait_s"     // comm: Recv/RecvAny on data tags
	layerSendRsvd = "send_reserved_s" // comm: Send on reserved tags
	layerTermWait = "term_wait_s"     // dsys: Recv on reserved tags
	layerOther    = "bsp_other_s"     // dsys: whatever no span below claims
)

var timeLayers = []string{layerMemoize, layerCompute, layerSyncSelf, layerSend,
	layerRecvWait, layerSendRsvd, layerTermWait, layerOther}

// layerOf charges a host span to a layer. Transport spans inside the
// memoization exchange belong to it, not to comm: memoize_s is the whole
// interval from run entry to the factory call.
func layerOf(s *span, parentName string) string {
	switch s.Name {
	case "memoize":
		return layerMemoize
	case "init", "compute":
		return layerCompute
	case "sync", "finalize":
		return layerSyncSelf
	case "send":
		if parentName == "memoize" {
			return layerMemoize
		}
		if s.Reserved {
			return layerSendRsvd
		}
		return layerSend
	case "recv_wait":
		if parentName == "memoize" {
			return layerMemoize
		}
		if s.Reserved {
			return layerTermWait
		}
		return layerRecvWait
	}
	return layerOther // host, round, term
}

// hostFold is one host's self times summed by layer.
type hostFold struct {
	active  uint64           // frontier population handed to Round, summed
	wall    int64            // total duration of the host spans
	byLayer map[string]int64 // sums to wall
	// perRound[layer][r] is the layer's self time in round r; index 0 holds
	// everything outside the rounds (memoize, init, finalize).
	perRound map[string][]int64
}

func foldHost(spans []span) hostFold {
	self := selfTimes(spans)
	f := hostFold{byLayer: map[string]int64{}, perRound: map[string][]int64{}}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "host":
			f.wall += s.End - s.Start // one host span per run of the operation
		case "compute":
			f.active += s.Count
		}
		parent := ""
		if s.Parent>>32 == s.ID>>32 { // same lane: the ID's low half is the index
			parent = spans[int(s.Parent&0xffffffff)-1].Name
		}
		l := layerOf(s, parent)
		f.byLayer[l] += self[i]
		slot := int(s.Round) + 1
		pr := f.perRound[l]
		for len(pr) <= slot {
			pr = append(pr, 0)
		}
		pr[slot] += self[i]
		f.perRound[l] = pr
	}
	return f
}

// runFold is one traced operation folded into layers.
type runFold struct {
	secs      map[string]float64 // seconds per layer, see layerTimes
	gating    hostFold           // the host that finished last
	active    uint64             // active_total: frontier population, all hosts
	accounted float64            // see layerTimes
}

// layerTimes folds one traced operation into seconds per layer. A BSP round
// ends when its slowest host does, so each layer is charged, round by round,
// the largest self time any host spent in it; the shares outside the rounds
// are charged the same way. The result bounds each layer's share of the run
// from above and the layers need not sum to the wall. accounted is the
// smallest, over hosts, of (sum of self times / host wall): 1 when every
// recorded span lies inside its host span.
func layerTimes(r *recorder) runFold {
	out := runFold{secs: make(map[string]float64, len(timeLayers)), accounted: 1}
	folds := make([]hostFold, 0, len(r.lanes)-1)
	for _, l := range r.lanes[1:] {
		f := foldHost(l.spans)
		folds = append(folds, f)
		out.active += f.active
		if f.wall >= out.gating.wall {
			out.gating = f
		}
		var sum int64
		for _, v := range f.byLayer {
			sum += v
		}
		if f.wall > 0 {
			out.accounted = min(out.accounted, float64(sum)/float64(f.wall))
		}
	}
	for _, layer := range timeLayers {
		var total int64
		for slot := 0; ; slot++ {
			var worst int64
			any := false
			for _, f := range folds {
				if pr := f.perRound[layer]; slot < len(pr) {
					any = true
					worst = max(worst, pr[slot])
				}
			}
			if !any {
				break
			}
			total += worst
		}
		out.secs[layer] = float64(total) / 1e9
	}
	// bsp_other_s is defined on the gating host alone: the part of its wall
	// that no layer above claims.
	out.secs[layerOther] = float64(out.gating.byLayer[layerOther]) / 1e9
	return out
}

// layerTable renders the gating host's partition of its run wall.
func layerTable(f hostFold) string {
	out := ""
	for _, l := range timeLayers {
		share := 0.0
		if f.wall > 0 {
			share = 100 * float64(f.byLayer[l]) / float64(f.wall)
		}
		out += fmt.Sprintf("    %-16s %9.4f s  %5.1f %%\n", l, float64(f.byLayer[l])/1e9, share)
	}
	return out
}
