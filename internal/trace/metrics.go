package trace

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Live metrics exposure: an HTTP endpoint serving the running rollup in the
// Prometheus text exposition format, and a periodic one-line stderr summary.
// Both read only the recorders' running Totals, never the event rings, so
// they are safe to poll at any rate while a run is in flight.

// MetricsServer serves a Trace's live counters over HTTP.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeMetrics starts an HTTP server on addr (e.g. "localhost:6060" or
// ":0") exposing the session's live counters at "/metrics" as Prometheus
// text exposition, plus the net/http/pprof capture tree under /debug/pprof/
// for on-demand CPU and heap profiles. The server runs until Close.
func ServeMetrics(addr string, t *Trace) (*MetricsServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		live := t.Live()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, &live)
	})
	registerPprof(mux)
	return serveHTTP(addr, "metrics", mux)
}

// serveHTTP is the one listen-and-serve both endpoints run: mux on addr
// until Close. what names the endpoint in a listen error.
func serveHTTP(addr, what string, mux *http.ServeMux) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("trace: %s listen %s: %w", what, addr, err)
	}
	ms := &MetricsServer{ln: ln, srv: &http.Server{Handler: mux}}
	go ms.srv.Serve(ln)
	return ms, nil
}

// Addr returns the bound address (resolves ":0" requests).
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close stops the server.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// StartSummary prints a one-line rollup of the session to w every interval,
// plus one final line when the returned stop function is called. Stop is
// idempotent and waits for the printer goroutine to exit.
func StartSummary(w io.Writer, t *Trace, every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				writeSummaryLine(w, t)
			case <-done:
				writeSummaryLine(w, t)
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

func writeSummaryLine(w io.Writer, t *Trace) {
	s := t.Live()
	sync := s.Phases[PhaseSync.String()]
	enc := s.Phases[PhaseEncode.String()]
	fmt.Fprintf(w, "trace: round=%d events=%d dropped=%d msgs=%d bytes=%s (val %s / meta %s / gid %s) sync=%v encode=%v\n",
		s.MaxRound, s.Events, s.Dropped, s.Messages,
		FmtBytes(s.TotalBytes()), FmtBytes(s.ValueBytes), FmtBytes(s.MetaBytes), FmtBytes(s.GIDBytes),
		round3(time.Duration(sync.DurNs)), round3(time.Duration(enc.DurNs)))
}
