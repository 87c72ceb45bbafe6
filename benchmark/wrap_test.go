package main

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"gluon/internal/bitset"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// tiny is a 2-host workload small enough for a unit test.
func tiny(algo string) spec {
	s := spec{name: "tiny-" + algo, algo: algo, graph: "rmat", scale: 9, edgeFactor: 8,
		weighted: algo == "sssp", hosts: 2, policy: partition.CVC, maxRounds: 10}
	if algo != "pr" {
		s.sources = 1
	}
	return s
}

func tinyInputs(t *testing.T, s spec) *inputs {
	t.Helper()
	in, err := s.setup(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The wrappers only watch: a wrapped run gives the values, rounds and
// comm_bytes of a raw one.
func TestWrappedRunMatchesRaw(t *testing.T) {
	for _, algo := range []string{"pr", "bfs", "sssp"} {
		s := tiny(algo)
		in := tinyInputs(t, s)
		raw, err := s.operation(in, true, nil)
		if err != nil {
			t.Fatalf("%s raw: %v", algo, err)
		}
		rec := newRecorder(s.hosts)
		rec.begin("test")
		wrapped, err := s.operation(in, true, rec)
		if err != nil {
			t.Fatalf("%s wrapped: %v", algo, err)
		}
		if raw.rounds != wrapped.rounds || raw.commBytes != wrapped.commBytes {
			t.Errorf("%s: raw rounds=%d comm_bytes=%d, wrapped rounds=%d comm_bytes=%d",
				algo, raw.rounds, raw.commBytes, wrapped.rounds, wrapped.commBytes)
		}
		if raw.wire != wrapped.wire {
			t.Errorf("%s: raw wire %+v, wrapped %+v", algo, raw.wire, wrapped.wire)
		}
		if !reflect.DeepEqual(raw.values, wrapped.values) {
			t.Errorf("%s: wrapped run computed different values", algo)
		}
		checkTrace(t, algo, rec, wrapped)
	}
}

// checkTrace checks the shape of one traced operation: every span closed
// and inside its host span, one round span per round, transport bytes equal
// to what the transports counted, and runtime tags told from data tags.
func checkTrace(t *testing.T, algo string, rec *recorder, op opResult) {
	t.Helper()
	var sent uint64
	for h, l := range rec.lanes[1:] {
		byID := map[int64]span{}
		rounds := 0
		for _, s := range l.spans {
			byID[s.ID] = s
			if s.End < s.Start {
				t.Fatalf("%s host %d: span %s never closed", algo, h, s.Name)
			}
			if s.Name == "round" {
				rounds++
			}
		}
		if rounds != op.rounds {
			t.Errorf("%s host %d: %d round spans for %d rounds", algo, h, rounds, op.rounds)
		}
		for _, s := range l.spans {
			parent, ok := byID[s.Parent]
			if s.Name == "host" {
				continue
			}
			if !ok {
				t.Fatalf("%s host %d: span %s has no parent on its lane", algo, h, s.Name)
			}
			switch s.Name {
			case "send":
				sent += s.Count
				// Helper goroutines may finish a send after the main
				// goroutine has left the phase; it still starts inside.
				if s.Start < parent.Start {
					t.Errorf("%s host %d: send starts before its parent %s", algo, h, parent.Name)
				}
			case "recv_wait":
				if s.Start < parent.Start || s.End > parent.End {
					t.Errorf("%s host %d: recv_wait outside its parent %s", algo, h, parent.Name)
				}
			}
			if s.Name == "send" || s.Name == "recv_wait" {
				switch parent.Name {
				case "term", "memoize":
					if !s.Reserved {
						t.Errorf("%s host %d: %s under %s on a data tag", algo, h, s.Name, parent.Name)
					}
				case "sync":
					if s.Reserved {
						t.Errorf("%s host %d: %s under sync on a reserved tag", algo, h, s.Name)
					}
				}
			}
		}
	}
	if sent != op.wire.BytesSent {
		t.Errorf("%s: send spans carry %d bytes, the transports counted %d", algo, sent, op.wire.BytesSent)
	}
	if accounted := layerTimes(rec).accounted; accounted < 0.999 || accounted > 1.001 {
		t.Errorf("%s: span self times cover %.4f of the host walls", algo, accounted)
	}
}

// failingProgram fails host 0 in its second round.
type failingProgram struct {
	dsys.Program
	host, round int
}

var errBoom = errors.New("boom")

func (p *failingProgram) Round(f *bitset.Bitset) (*bitset.Bitset, error) {
	if p.round++; p.host == 0 && p.round == 2 {
		return nil, errBoom
	}
	return p.Program.Round(f)
}

// A host that fails must still unblock its peers through the wrapper:
// dsys finds comm.PeerFailer on the transports it was given.
func TestWrappedRunForwardsPeerFailure(t *testing.T) {
	s := tiny("pr")
	in := tinyInputs(t, s)
	ts, err := s.open()
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	for _, tr := range ts {
		if _, ok := comm.Transport(&timedTransport{Transport: tr}).(comm.PeerFailer); !ok {
			t.Fatal("timedTransport does not implement comm.PeerFailer")
		}
	}
	rec := newRecorder(s.hosts)
	rec.begin("test")
	inner := s.factory(0)
	wrapped, factory := traceRun(newHostTraces(rec, s.hosts), 0, ts,
		func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
			prog, err := inner(p, g)
			return &failingProgram{Program: prog, host: p.HostID}, err
		})
	done := make(chan error, 1)
	go func() {
		_, err := dsys.RunWithTransports(in.parts, wrapped, s.runConfig(false), factory)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errBoom) {
			var pe *comm.PeerError
			if !errors.As(err, &pe) {
				t.Fatalf("run failed with %v, want the program's error or a PeerError", err)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run hung: the surviving host was never told its peer failed")
	}
}

// An operation that does not reproduce the warm-up's rounds and comm_bytes
// is a failed operation, not a sample.
func TestAttemptFailsOnChangedCounts(t *testing.T) {
	s := tiny("bfs")
	b := &bench{s: s, in: tinyInputs(t, s), w: io.Discard}
	var err error
	if b.base, err = s.operation(b.in, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.attempt(nil); !ok || b.res.Failed != 0 || b.res.Attempted != 1 {
		t.Fatalf("a repeat of the warm-up: ok=%v failed/attempted=%d/%d", ok, b.res.Failed, b.res.Attempted)
	}
	b.base.commBytes++
	if _, ok := b.attempt(nil); ok || b.res.Failed != 1 || b.res.Attempted != 2 {
		t.Fatalf("changed comm_bytes: ok=%v failed/attempted=%d/%d", ok, b.res.Failed, b.res.Attempted)
	}
}
