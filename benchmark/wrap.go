package main

import (
	"sync/atomic"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// reservedTags is the first tag of the runtime's own protocols (barrier,
// all-reduce, memoization, termination); everything below is field-sync data.
const reservedTags comm.Tag = 0xFFFF0000

// hostTrace is the tracing state one host's two wrappers share: the
// program wrapper moves the host through its phases on the host's main
// goroutine, and the transport wrapper hangs its spans under the phase that
// is open when a call starts.
type hostTrace struct {
	rec  *recorder
	host int

	hostSpan  int64 // run > host
	phase     int64 // open child of the host or round span, 0 if none
	roundSpan int64 // open round span, 0 outside the rounds
	// rounds numbers the rounds of one operation across its runs (an sssp
	// operation is 8 runs). Hosts leave every run after the same round, so
	// round r is the same round on every host.
	rounds int32

	// cur and round are read by the host's helper goroutines.
	cur   atomic.Int64 // span that transport spans starting now belong to
	round atomic.Int32 // -1 outside the rounds
}

// start opens the host span and its memoize phase; it is called just before
// dsys.RunWithTransports, which starts with the memoization exchange.
func (ht *hostTrace) start(runSpan int64) {
	ht.round.Store(-1)
	ht.hostSpan = ht.rec.open(ht.host, "host", runSpan, -1)
	ht.enter("memoize")
}

// enter closes the open phase and opens the next.
func (ht *hostTrace) enter(name string) {
	ht.leave(0)
	ht.phase = ht.rec.open(ht.host, name, ht.cur.Load(), ht.round.Load())
	ht.cur.Store(ht.phase)
}

// leave closes the open phase, attaching the work counted in it; transport
// spans fall back to its parent.
func (ht *hostTrace) leave(count uint64) {
	if ht.phase != 0 {
		ht.rec.close(ht.phase, count)
		ht.phase = 0
	}
	if ht.roundSpan != 0 {
		ht.cur.Store(ht.roundSpan)
	} else {
		ht.cur.Store(ht.hostSpan)
	}
}

// nextRound closes the open round, if any, and opens the next.
func (ht *hostTrace) nextRound() {
	ht.endRounds()
	ht.round.Store(ht.rounds)
	ht.roundSpan = ht.rec.open(ht.host, "round", ht.hostSpan, ht.rounds)
	ht.cur.Store(ht.roundSpan)
	ht.rounds++
}

func (ht *hostTrace) endRounds() {
	ht.leave(0)
	if ht.roundSpan != 0 {
		ht.rec.close(ht.roundSpan, 0)
		ht.roundSpan = 0
	}
	ht.round.Store(-1)
	ht.cur.Store(ht.hostSpan)
}

func newHostTraces(rec *recorder, hosts int) []*hostTrace {
	hts := make([]*hostTrace, hosts)
	for h := range hts {
		hts[h] = &hostTrace{rec: rec, host: h}
	}
	return hts
}

// finish closes whatever is still open; idempotent, and also used after a
// failed run, where the program never reached Finalize.
func (ht *hostTrace) finish() {
	ht.endRounds()
	if ht.hostSpan != 0 {
		ht.rec.close(ht.hostSpan, 0)
		ht.hostSpan = 0
	}
}

// timedTransport times every call that crosses into comm. It forwards the
// payloads untouched, so the Send/SendVec ownership contract is the inner
// transport's: the wrapper reads only the lengths, and reads them before
// the call because the payload is not the caller's afterwards.
type timedTransport struct {
	comm.Transport
	ht *hostTrace
}

func (t *timedTransport) Send(to int, tag comm.Tag, payload []byte) error {
	n, c := len(payload), t.begin()
	err := t.Transport.Send(to, tag, payload)
	t.end(c, "send", tag, n)
	return err
}

func (t *timedTransport) SendVec(to int, tag comm.Tag, header, payload []byte) error {
	n, c := len(header)+len(payload), t.begin()
	err := t.Transport.SendVec(to, tag, header, payload)
	t.end(c, "send", tag, n)
	return err
}

func (t *timedTransport) Recv(from int, tag comm.Tag) ([]byte, error) {
	c := t.begin()
	p, err := t.Transport.Recv(from, tag)
	t.end(c, "recv_wait", tag, len(p))
	return p, err
}

func (t *timedTransport) RecvAny(tag comm.Tag, from []int) (int, []byte, error) {
	c := t.begin()
	h, p, err := t.Transport.RecvAny(tag, from)
	t.end(c, "recv_wait", tag, len(p))
	return h, p, err
}

// call is where and when a transport call started.
type call struct {
	parent int64
	round  int32
	start  int64
}

func (t *timedTransport) begin() call {
	return call{t.ht.cur.Load(), t.ht.round.Load(), t.ht.rec.now()}
}

func (t *timedTransport) end(c call, name string, tag comm.Tag, bytes int) {
	t.ht.rec.leaf(t.ht.host, name, c.parent, c.round, c.start, tag >= reservedTags, uint64(bytes))
}

// FailPeer forwards comm.PeerFailer, which embedding the Transport
// interface does not promote: without it a failed host would leave its
// peers blocked in Recv for ever.
func (t *timedTransport) FailPeer(host int, err error) {
	if pf, ok := t.Transport.(comm.PeerFailer); ok {
		pf.FailPeer(host, err)
	}
}

// timedProgram times the calls the BSP runner makes into one host's
// program. The runner's own work between those calls (the termination
// all-reduce after Sync, the barrier before Init) shows up as the term span
// and as init's reserved-tag children.
type timedProgram struct {
	dsys.Program
	ht      *hostTrace
	started bool // the open round has had its compute phase
}

func (p *timedProgram) Init() (*bitset.Bitset, error) {
	b, err := p.Program.Init()
	p.ht.nextRound()
	return b, err
}

func (p *timedProgram) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	if p.started {
		p.ht.nextRound() // ends the previous round's term phase
	}
	p.started = true
	active := uint64(frontier.Count())
	p.ht.enter("compute")
	out, err := p.Program.Round(frontier)
	p.ht.leave(active)
	return out, err
}

func (p *timedProgram) Sync(updated *bitset.Bitset) error {
	p.ht.enter("sync")
	err := p.Program.Sync(updated)
	p.ht.enter("term")
	return err
}

func (p *timedProgram) Finalize() error {
	p.ht.endRounds()
	p.ht.enter("finalize")
	err := p.Program.Finalize()
	p.ht.finish()
	return err
}

// traceRun wraps the two things dsys.RunWithTransports takes from its
// caller. Until a host's factory is called it is inside gluon.New, so the
// factory call ends memoize and starts init (which therefore includes
// building the program and the runner's barrier).
func traceRun(hts []*hostTrace, runSpan int64, ts []comm.Transport, factory dsys.ProgramFactory) ([]comm.Transport, dsys.ProgramFactory) {
	wrapped := make([]comm.Transport, len(ts))
	for h, t := range ts {
		hts[h].start(runSpan)
		wrapped[h] = &timedTransport{Transport: t, ht: hts[h]}
	}
	return wrapped, func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		ht := hts[p.HostID]
		ht.enter("init")
		prog, err := factory(p, g)
		if err != nil {
			return nil, err
		}
		return &timedProgram{Program: prog, ht: ht}, nil
	}
}
