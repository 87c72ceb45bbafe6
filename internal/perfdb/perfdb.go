// Package perfdb is the machine-fingerprinted, append-only benchmark
// history behind the perf observability plane: every gluon-bench sync
// measurement appends one schema-versioned JSONL record — host fingerprint
// and per-benchmark min-over-reps timing with a noise estimate — and
// cmd/gluon-perf reads the accumulated history back for trend tables and
// regression checks. BENCH_sync.json, the ratio gate's baseline, is one of
// these records pinned to its own file. Appends are single-write lines so a crash
// mid-append tears at most the trailing record, which Read tolerates.
package perfdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// Schema is the record format version this package writes. Readers skip
// records from newer schemas rather than misinterpreting them.
const Schema = 1

// BenchResult is one benchmark's measurement within a record.
type BenchResult struct {
	// Name identifies the benchmark series ("sync/h=2/auto").
	Name string `json:"name"`
	// Hosts and Encoding are the sync-bench coordinates behind Name, kept
	// structured so the ratio gate can pair a tier with its unopt
	// reference without parsing names.
	Hosts    int    `json:"hosts,omitempty"`
	Encoding string `json:"encoding,omitempty"`
	// NsPerOp is the min-over-reps wall time: load spikes only ever
	// inflate a rep, so the min estimates the true cost.
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// NoiseNs is the median absolute deviation of ns/op across the reps —
	// the record's own estimate of how trustworthy NsPerOp is on this
	// machine at this moment. Gates widen their tolerance by it.
	NoiseNs int64 `json:"noise_ns,omitempty"`
	// Reps is how many repetitions the min and MAD were taken over.
	Reps int `json:"reps,omitempty"`
}

// Record is one appended history entry: everything measured in one
// gluon-bench invocation on one machine.
type Record struct {
	Schema int       `json:"schema"`
	Time   time.Time `json:"time"`
	// Label names the producing path ("sync-bench" full snapshots,
	// "sync-guard" gate measurements).
	Label       string      `json:"label,omitempty"`
	Fingerprint Fingerprint `json:"fingerprint"`
	// FingerprintID is Fingerprint.ID(), denormalized so grep and jq can
	// group the raw file without recomputing hashes.
	FingerprintID string `json:"fp"`
	// Graph pins the measured configuration; series with different
	// configurations are not comparable.
	Graph      string        `json:"graph,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// Append writes rec as one JSONL line at the end of path, creating the
// file if needed. The line goes out in a single write on an O_APPEND
// descriptor, so concurrent appenders interleave at line granularity and a
// crash tears at most the final record.
func Append(path string, rec *Record) error {
	if rec.Schema == 0 {
		rec.Schema = Schema
	}
	if rec.FingerprintID == "" {
		rec.FingerprintID = rec.Fingerprint.ID()
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("perfdb: marshaling record: %w", err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("perfdb: opening %s: %w", path, err)
	}
	// A crash mid-append leaves a torn, newline-less fragment at the tail.
	// Terminate it before writing so the new record lands on its own line
	// and only the fragment is lost, not this append.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			line = append([]byte{'\n'}, line...)
		}
	}
	_, werr := f.Write(line)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("perfdb: appending to %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("perfdb: closing %s: %w", path, cerr)
	}
	return nil
}

// Read loads every parseable record from path in append order and reports
// how many lines it had to skip: a torn trailing record (crash mid-append),
// stray corruption, or records written by a newer schema all skip rather
// than fail — an append-only history must stay readable after any single
// bad write. Only an unreadable file is an error.
func Read(path string) (recs []Record, skipped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("perfdb: reading %s: %w", path, err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Schema < 1 || rec.Schema > Schema {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	return recs, skipped, nil
}

// ErrEmpty is returned by Latest when the history holds no usable record.
var ErrEmpty = errors.New("perfdb: no records")

// Latest returns the newest record (by file order) matching the optional
// filters: label "" matches any label, fingerprintID "" any machine.
func Latest(recs []Record, label, fingerprintID string) (*Record, error) {
	for i := len(recs) - 1; i >= 0; i-- {
		r := &recs[i]
		if label != "" && r.Label != label {
			continue
		}
		if fingerprintID != "" && r.FingerprintID != fingerprintID {
			continue
		}
		return r, nil
	}
	return nil, ErrEmpty
}

// MAD returns the median absolute deviation of ns samples — the noise
// estimate the records carry. Robust against the one-sided outliers load
// spikes produce, unlike a standard deviation.
func MAD(samples []int64) int64 {
	if len(samples) < 2 {
		return 0
	}
	med := median(samples)
	devs := make([]int64, len(samples))
	for i, s := range samples {
		d := s - med
		if d < 0 {
			d = -d
		}
		devs[i] = d
	}
	return median(devs)
}

func median(samples []int64) int64 {
	s := append([]int64(nil), samples...)
	for i := 1; i < len(s); i++ { // insertion sort: rep counts are tiny
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
