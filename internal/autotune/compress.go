package autotune

import (
	"sync"

	"gluon/internal/gluon"
)

// CompressTuner is an adaptive per-field compression policy implementing
// gluon.CompressPolicy. Instead of a single static size threshold
// (gluon.CompressAbove), it learns — per synchronized field — whether DEFLATE
// actually pays on that field's traffic, from two observed signals:
//
//   - the compression ratio (wire bytes / raw bytes) as an EWMA over the
//     messages it shipped compressed, and
//   - the encode cost in ns/raw-byte, also an EWMA.
//
// The decision rule is probe-first: the first few messages of each field
// above MinSize are always compressed so the tuner has data. After that, a
// field keeps compressing while the observed saving fraction
// (1 − ratio EWMA) stays at or above MinSaving — and, when a Bandwidth
// model is configured, while the CPU time to compress a message is not
// larger than the wire time the removed bytes would have cost. A field
// whose traffic stops paying flips to skipping, but re-probes one message
// every ProbeEvery skipped messages so a workload whose value distribution
// shifts (e.g. labels converging, deltas shrinking) can win compression
// back.
//
// Adaptivity is per-host and observation-driven, so two hosts may make
// different ship/skip choices for the same field in the same round. That
// is safe by construction: the DEFLATE wrapper is self-describing
// (modeCompressed tag + raw length), decompression is transparent to the
// decoder, and the decoded bytes are identical either way — only wire
// volume and encode CPU vary, never the folded values.
//
// All methods are safe for concurrent use by parallel encode workers.
type CompressTuner struct {
	cfg CompressConfig

	mu     sync.Mutex
	fields map[uint32]*fieldComp
}

// CompressConfig parameterizes a CompressTuner. The zero value is usable;
// each field documents its default.
type CompressConfig struct {
	// MinSize is the payload size below which compression is never
	// attempted — the DEFLATE stream setup cost dominates tiny messages
	// regardless of ratio (0 = 256 bytes).
	MinSize int
	// ProbeWindow is how many initial messages per field are compressed
	// unconditionally to seed the EWMAs (0 = 4).
	ProbeWindow int
	// ProbeEvery is the re-probe period while a field is in the skipping
	// state: one message in every ProbeEvery is compressed to refresh the
	// EWMAs (0 = 64).
	ProbeEvery int
	// MinSaving is the minimum observed saving fraction (1 − wire/raw)
	// for a field to keep compressing (0 = 0.10, i.e. 10%).
	MinSaving float64
	// BandwidthBytesPerSec, when non-zero, enables the CPU criterion: a
	// field also stops compressing when the EWMA encode time per message
	// exceeds the wire time of the bytes compression saves at this link
	// bandwidth. Zero disables the criterion, making decisions a pure
	// function of observed ratios (deterministic across machines).
	BandwidthBytesPerSec float64
	// Alpha is the EWMA smoothing factor in (0, 1]; larger tracks shifts
	// faster (0 = 0.25).
	Alpha float64
}

func (c *CompressConfig) withDefaults() CompressConfig {
	out := *c
	if out.MinSize <= 0 {
		out.MinSize = 256
	}
	if out.ProbeWindow <= 0 {
		out.ProbeWindow = 4
	}
	if out.ProbeEvery <= 0 {
		out.ProbeEvery = 64
	}
	if out.MinSaving <= 0 {
		out.MinSaving = 0.10
	}
	if out.Alpha <= 0 || out.Alpha > 1 {
		out.Alpha = 0.25
	}
	return out
}

// fieldComp is one field's learned state. Guarded by CompressTuner.mu:
// sync encodes a handful of messages per field per round, so a single
// tuner-wide mutex is far from contention even with parallel workers.
type fieldComp struct {
	observed  int     // compressed messages folded into the EWMAs
	skipping  bool    // current decision state
	sinceSkip int     // messages declined since entering skipping
	ratio     float64 // EWMA of wireBytes/rawBytes over shipped messages
	nsPerByte float64 // EWMA of compressNs/rawBytes over shipped messages
}

// NewCompressTuner returns a tuner with the given configuration; pass it
// via gluon.Options.Compress.
func NewCompressTuner(cfg CompressConfig) *CompressTuner {
	return &CompressTuner{cfg: cfg.withDefaults(), fields: make(map[uint32]*fieldComp)}
}

func (t *CompressTuner) field(id uint32) *fieldComp {
	fc := t.fields[id]
	if fc == nil {
		fc = &fieldComp{}
		t.fields[id] = fc
	}
	return fc
}

// ShouldCompress implements gluon.CompressPolicy.
func (t *CompressTuner) ShouldCompress(fieldID uint32, size int) bool {
	if size < t.cfg.MinSize {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fc := t.field(fieldID)
	if fc.observed < t.cfg.ProbeWindow {
		return true // still seeding the EWMAs
	}
	if !fc.skipping {
		return true
	}
	// Skipping: let one probe through every ProbeEvery declines.
	if fc.sinceSkip+1 >= t.cfg.ProbeEvery {
		fc.sinceSkip = 0
		return true
	}
	return false
}

// Observe implements gluon.CompressPolicy. Shipped observations (the
// message actually went out compressed) update the EWMAs and re-evaluate
// the field's decision; declined or failed attempts only advance the
// re-probe counter.
func (t *CompressTuner) Observe(fieldID uint32, rawBytes, wireBytes int, compressNs int64, shipped bool) {
	if rawBytes <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fc := t.field(fieldID)
	if !shipped {
		if fc.skipping {
			fc.sinceSkip++
		} else if compressNs > 0 && fc.observed >= t.cfg.ProbeWindow {
			// An attempted compression that came back incompressible
			// (wire == raw, fail-open) is strong evidence: fold a ratio
			// of 1 into the EWMA so repeated failures flip the field.
			fc.ratio += t.cfg.Alpha * (1 - fc.ratio)
			t.decide(fc)
		}
		return
	}
	ratio := float64(wireBytes) / float64(rawBytes)
	nsPerByte := float64(compressNs) / float64(rawBytes)
	if fc.observed == 0 {
		fc.ratio, fc.nsPerByte = ratio, nsPerByte
	} else {
		fc.ratio += t.cfg.Alpha * (ratio - fc.ratio)
		fc.nsPerByte += t.cfg.Alpha * (nsPerByte - fc.nsPerByte)
	}
	fc.observed++
	if fc.observed >= t.cfg.ProbeWindow {
		t.decide(fc)
	}
}

// decide re-evaluates a field's ship/skip state from its EWMAs.
func (t *CompressTuner) decide(fc *fieldComp) {
	saving := 1 - fc.ratio
	worth := saving >= t.cfg.MinSaving
	if worth && t.cfg.BandwidthBytesPerSec > 0 {
		// CPU criterion: compressing a byte costs nsPerByte; shipping the
		// bytes it removes would have cost saving/bandwidth seconds per
		// raw byte. Compression loses when the CPU side is larger.
		wireNsPerByte := saving / t.cfg.BandwidthBytesPerSec * 1e9
		if fc.nsPerByte > wireNsPerByte {
			worth = false
		}
	}
	if worth {
		fc.skipping = false
	} else if !fc.skipping {
		fc.skipping = true
		fc.sinceSkip = 0
	}
}

// FieldState is one field's learned compression state, for diagnostics.
type FieldState struct {
	FieldID   uint32  `json:"field"`
	Observed  int     `json:"observed"`
	Skipping  bool    `json:"skipping"`
	Ratio     float64 `json:"ratio"`
	NsPerByte float64 `json:"ns_per_byte"`
}

// Snapshot returns the per-field learned state, sorted by field ID.
func (t *CompressTuner) Snapshot() []FieldState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]FieldState, 0, len(t.fields))
	for id, fc := range t.fields {
		out = append(out, FieldState{
			FieldID: id, Observed: fc.observed, Skipping: fc.skipping,
			Ratio: fc.ratio, NsPerByte: fc.nsPerByte,
		})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].FieldID > out[j].FieldID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// The interface-satisfaction pin keeps the gluon contract honest at
// compile time.
var _ gluon.CompressPolicy = (*CompressTuner)(nil)
