package trace

// Structured logging for the substrate (DESIGN.md §4.7). Every CLI and
// every comm/dsys failure path logs through a *slog.Logger built by
// NewLogger: the standard library's text handler on stderr, one
// "time=… level=… msg=… component=… key=val" line per record, with every
// line also teed into the armed flight recorder's bounded recent-log ring,
// so bundles carry the last console lines even when the operator's
// terminal scrolled away.

import (
	"context"
	"io"
	"log/slog"
	"os"
	"strings"
)

// NewLogger is the constructor every CLI uses: a logger on stderr tagged
// with the component name.
func NewLogger(component string) *slog.Logger { return newLogger(os.Stderr, component) }

func newLogger(w io.Writer, component string) *slog.Logger {
	return slog.New(slog.NewTextHandler(tee{w}, nil)).With("component", component)
}

// tee copies each rendered record into the armed flight recorder. The text
// handler writes one whole record per Write, under its own mutex.
type tee struct{ w io.Writer }

func (t tee) Write(p []byte) (int, error) {
	Armed().appendLog(strings.TrimSuffix(string(p), "\n"))
	return t.w.Write(p)
}

// logWriter adapts a *slog.Logger to the io.Writer sinks that predate
// structured logging (the watchdog's report paragraph): every Write becomes
// one record at the given level, trailing newline stripped.
type logWriter struct {
	log   *slog.Logger
	level slog.Level
}

// LogWriter returns an io.Writer whose writes become records on log.
func LogWriter(log *slog.Logger, level slog.Level) io.Writer {
	return logWriter{log: log, level: level}
}

func (lw logWriter) Write(p []byte) (int, error) {
	lw.log.Log(context.Background(), lw.level, strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// LogDropped is the one shared dropped-events warning (satellite of
// DESIGN.md §4.7): every CLI previously phrased this differently, which
// meant an operator grepping for one wording missed the other. The line
// states both the consequence and the remedy.
func LogDropped(log *slog.Logger, dropped uint64) {
	if dropped == 0 || log == nil {
		return
	}
	log.Warn("trace ring overflowed; oldest events were overwritten — totals undercount the run",
		"dropped", dropped,
		"remedy", "raise trace.Config.Capacity (gluon-run/gluon-bench -trace keeps the default 1<<17 per host)")
}
