package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// Export format: the Chrome trace_event JSON format, loadable directly in
// chrome://tracing and https://ui.perfetto.dev: hosts become processes,
// lanes become threads, spans become complete ("X") events and frame/fault
// markers become instants ("i"). It round-trips through ReadEvents without
// losing any Event field (args carry the ones trace_event has no place for).

// MarshalJSON writes the phase as its string name.
func (p Phase) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON accepts a phase name (or a raw number, for robustness).
func (p *Phase) UnmarshalJSON(b []byte) error { return unmarshalName(b, phaseNames[:], (*uint8)(p)) }

// unmarshalName decodes one of names, or a raw number, into *v — the JSON
// form of Phase and CritPhase. "unknown", the String form of the
// out-of-range value len(names), decodes to that value: heartbeats of hosts
// that have not published a live phase yet carry it.
func unmarshalName(b []byte, names []string, v *uint8) error {
	var s string
	if json.Unmarshal(b, &s) != nil {
		return json.Unmarshal(b, v)
	}
	i := slices.Index(names, s)
	if i < 0 && s != "unknown" {
		return fmt.Errorf("trace: unknown phase %q", s)
	}
	if i < 0 {
		i = len(names)
	}
	*v = uint8(i)
	return nil
}

// Meta is the non-event payload of an export: the session label, the
// cluster-wide count of events lost to ring overwrites or sideband ring
// wraps, and — for merged multi-process traces — the measured per-host clock
// offsets the timestamps were rebased by, each with its error bound.
type Meta struct {
	Label   string      `json:"label,omitempty"`
	Dropped uint64      `json:"dropped"`
	Clocks  []ClockInfo `json:"clocks,omitempty"`
	// Sessions are the sideband shipper lifecycle records of a collector
	// merge (empty for single-process traces); a session that never said
	// bye is preserved here with its disconnect reason.
	Sessions []SessionInfo `json:"sessions,omitempty"`
}

const formatVersion = 1

// chromeEvent is one trace_event record. Args carries every Event field the
// top-level record can't, so Chrome exports round-trip losslessly.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"` // microseconds
	Dur  float64     `json:"dur,omitempty"`
	Pid  int32       `json:"pid"`
	Tid  int32       `json:"tid"`
	S    string      `json:"s,omitempty"` // instant scope
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Round  int32  `json:"round"`
	Peer   int32  `json:"peer"`
	Field  uint32 `json:"field,omitempty"`
	Mode   *int8  `json:"mode,omitempty"`
	Value  uint64 `json:"value,omitempty"`
	Meta   uint64 `json:"meta,omitempty"`
	GID    uint64 `json:"gid,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Name carries process names on "M" metadata records.
	Name string `json:"name,omitempty"`
}

type chromeOther struct {
	Trace    string        `json:"trace"`
	Version  int           `json:"version"`
	Label    string        `json:"label,omitempty"`
	Dropped  uint64        `json:"dropped"`
	Clocks   []ClockInfo   `json:"clocks,omitempty"`
	Sessions []SessionInfo `json:"sessions,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
	OtherData       *chromeOther  `json:"otherData,omitempty"`
}

// WriteChrome writes events as a trace_event JSON document, streaming
// one record per line so multi-million-event traces don't need a second copy
// in memory. meta lands in otherData, where Perfetto surfaces it.
func WriteChrome(w io.Writer, meta Meta, events []Event) error {
	bw := bufio.NewWriter(w)
	other, err := json.Marshal(&chromeOther{Trace: "gluon", Version: formatVersion, Label: meta.Label, Dropped: meta.Dropped, Clocks: meta.Clocks, Sessions: meta.Sessions})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "{\"otherData\":%s,\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", other); err != nil {
		return err
	}
	first := true
	emit := func(ce *chromeEvent) error {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	// Name each host's process once, so Perfetto shows "host N" tracks.
	seen := map[int32]bool{}
	for i := range events {
		h := events[i].Host
		if !seen[h] {
			seen[h] = true
			if err := emit(&chromeEvent{Name: "process_name", Ph: "M", Pid: h, Args: &chromeArgs{Name: fmt.Sprintf("host %d", h)}}); err != nil {
				return err
			}
		}
	}
	for i := range events {
		e := &events[i]
		ce := chromeEvent{
			Name: e.Phase.String(),
			Cat:  "gluon",
			Ts:   float64(e.Start) / 1e3,
			Pid:  e.Host,
			Tid:  e.Lane,
			Args: &chromeArgs{Round: e.Round, Peer: e.Peer, Field: e.Field, Value: e.Value, Meta: e.Meta, GID: e.GID, Detail: e.Detail},
		}
		if e.Phase == PhaseEncode {
			m := e.Mode
			ce.Args.Mode = &m
		}
		if e.Phase.Instant() {
			ce.Ph, ce.S = "i", "t"
		} else {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		}
		if err := emit(&ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile exports the session to path as a Chrome trace and returns the
// number of events written.
func (t *Trace) WriteFile(path string) (int, error) {
	events, dropped := t.Snapshot()
	return len(events), WriteFileMeta(path, Meta{Label: t.Label(), Dropped: dropped}, events)
}

// WriteFileMeta exports events with meta to path as a Chrome trace.
func WriteFileMeta(path string, meta Meta, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteChrome(f, meta, events)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ReadEvents parses a Chrome trace export, returning the events in file
// order plus the full recorded metadata.
func ReadEvents(r io.Reader) ([]Event, Meta, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, Meta{}, err
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, Meta{}, fmt.Errorf("trace: parsing chrome trace: %w", err)
	}
	// Valid JSON without the key is not an export: it must not parse as an
	// empty-but-valid trace.
	if doc.TraceEvents == nil {
		return nil, Meta{}, fmt.Errorf("trace: not a chrome trace (no traceEvents)")
	}
	var meta Meta
	if doc.OtherData != nil {
		meta = Meta{Label: doc.OtherData.Label, Dropped: doc.OtherData.Dropped, Clocks: doc.OtherData.Clocks, Sessions: doc.OtherData.Sessions}
	}
	events := make([]Event, 0, len(doc.TraceEvents))
	for _, ce := range doc.TraceEvents {
		if ce.Ph == "M" {
			continue
		}
		ph, ok := ParsePhase(ce.Name)
		if !ok {
			continue // foreign record; tolerate mixed traces
		}
		e := Event{
			Start: int64(math.Round(ce.Ts * 1e3)),
			Dur:   int64(math.Round(ce.Dur * 1e3)),
			Host:  ce.Pid,
			Lane:  ce.Tid,
			Phase: ph,
		}
		if ce.Args != nil {
			e.Round, e.Peer, e.Field = ce.Args.Round, ce.Args.Peer, ce.Args.Field
			e.Value, e.Meta, e.GID = ce.Args.Value, ce.Args.Meta, ce.Args.GID
			e.Detail = ce.Args.Detail
			if ce.Args.Mode != nil {
				e.Mode = *ce.Args.Mode
			}
		}
		events = append(events, e)
	}
	return events, meta, nil
}

// ReadFile parses a trace export from disk.
func ReadFile(path string) ([]Event, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	return ReadEvents(f)
}

// sortEventsByStart orders events on the (shared or aligned) time axis.
func sortEventsByStart(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })
}
