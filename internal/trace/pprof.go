package trace

// Profiling hooks. Two pieces: goroutine phase labels, so CPU profiles
// attribute samples to substrate stages (encode vs fold vs apply vs user
// compute) instead of one undifferentiated runSync blob; and HTTP capture
// endpoints, so a live run can hand over CPU/heap profiles on demand.
//
// The labels must cost nothing when profiling is off — LabelPhase at a hot
// site is one atomic load returning a shared no-op closure, and the label
// contexts are built once up front, so even the enabled path allocates
// nothing per call.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	rpprof "runtime/pprof"
	"sync/atomic"
)

// phaseLabels gates goroutine phase labelling; off by default.
var phaseLabels atomic.Bool

// phaseLabelCtx[p] carries the pprof label set {gluon_phase: p.String()},
// prebuilt so the enabled path performs no allocation.
var phaseLabelCtx [NumPhases]context.Context

func init() {
	for p := Phase(0); p < NumPhases; p++ {
		phaseLabelCtx[p] = rpprof.WithLabels(context.Background(), rpprof.Labels("gluon_phase", p.String()))
	}
}

// SetPhaseLabels turns goroutine phase labelling on or off for the whole
// process. Enable it alongside CPU profiling (-pprof-addr) to see profile
// samples split by substrate stage.
func SetPhaseLabels(on bool) { phaseLabels.Store(on) }

var (
	noopRestore = func() {}
	clearLabels = func() { rpprof.SetGoroutineLabels(context.Background()) }
)

// LabelPhase tags the calling goroutine with gluon_phase=<p> for CPU-profile
// attribution and returns the function that removes the tag. When labelling
// is disabled (the default) it is an atomic load returning a shared no-op —
// zero allocations, safe on the sync hot path.
//
//	defer LabelPhase(PhaseFold)()
func LabelPhase(p Phase) func() {
	if !phaseLabels.Load() {
		return noopRestore
	}
	rpprof.SetGoroutineLabels(phaseLabelCtx[p])
	return clearLabels
}

// PprofServer is a running -pprof-addr endpoint.
type PprofServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServePprof starts a profiling server on addr (the -pprof-addr flag, e.g.
// "localhost:6060" or ":0") serving the net/http/pprof capture tree —
// /debug/pprof/ (index incl. heap, goroutine, block...), profile (CPU),
// cmdline, symbol, trace — and enables phase labels so CPU captures are
// stage-attributed. The server runs until Close.
func ServePprof(addr string) (*PprofServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("trace: pprof listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	ps := &PprofServer{ln: ln, srv: &http.Server{Handler: mux}}
	go ps.srv.Serve(ln)
	SetPhaseLabels(true)
	return ps, nil
}

// Addr returns the bound address (resolves ":0" requests).
func (p *PprofServer) Addr() string { return p.ln.Addr().String() }

// Close stops the server.
func (p *PprofServer) Close() error { return p.srv.Close() }
