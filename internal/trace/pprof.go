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

// registerPprof mounts the net/http/pprof capture handlers on mux:
// /debug/pprof/ (index incl. heap, goroutine, block...), profile (CPU),
// cmdline, symbol, trace.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
}

// ServePprof starts a standalone profiling server on addr (the -pprof-addr
// flag) serving the /debug/pprof/ tree, and enables phase labels so CPU
// captures are stage-attributed. Close the returned server to stop.
func ServePprof(addr string) (*MetricsServer, error) {
	mux := http.NewServeMux()
	registerPprof(mux)
	ms, err := serveHTTP(addr, "pprof", mux)
	if err == nil {
		SetPhaseLabels(true)
	}
	return ms, err
}
