package trace

import (
	"fmt"
	"testing"
)

// fakeExchange simulates one NTP probe between a local clock and a remote
// clock running trueOffset ahead, with independently chosen forward and
// backward wire delays per probe.
type fakeExchange struct {
	local      int64 // local clock now
	trueOffset int64 // remote clock = local clock + trueOffset
	delays     [][2]int64
	i          int
	errAt      map[int]error
}

func (f *fakeExchange) exchange() (t0, t1, t2, t3 int64, err error) {
	if e := f.errAt[f.i]; e != nil {
		f.i++
		return 0, 0, 0, 0, e
	}
	d := f.delays[f.i%len(f.delays)]
	f.i++
	fwd, back := d[0], d[1]
	t0 = f.local
	t1 = t0 + fwd + f.trueOffset
	t2 = t1 + 100 // remote processing time
	t3 = t0 + fwd + 100 + back
	f.local = t3 + 1000 // time passes between probes
	return
}

func TestEstimateOffsetSymmetric(t *testing.T) {
	// Symmetric legs: the estimate is exact whatever the delay magnitude.
	f := &fakeExchange{trueOffset: 7_000_000, delays: [][2]int64{{50_000, 50_000}, {900_000, 900_000}, {10_000, 10_000}}}
	info, err := EstimateOffset(6, f.exchange)
	if err != nil {
		t.Fatal(err)
	}
	if info.OffsetNs != 7_000_000 {
		t.Fatalf("offset = %d, want exactly 7000000 under symmetric delays", info.OffsetNs)
	}
	// Min-RTT sample is the 10µs probe: rtt = fwd + back.
	if info.RTTNs != 20_000 {
		t.Fatalf("rtt = %d, want 20000 (min-RTT sample)", info.RTTNs)
	}
	if info.UncertaintyNs != 10_000 {
		t.Fatalf("uncertainty = %d, want rtt/2", info.UncertaintyNs)
	}
	if info.Samples != 6 {
		t.Fatalf("samples = %d, want 6", info.Samples)
	}
}

func TestEstimateOffsetAsymmetricBounded(t *testing.T) {
	// Injected asymmetric delays: for legs (fwd, back) the estimate is off by
	// (fwd-back)/2, which must stay within the reported uncertainty
	// (fwd+back)/2. Exercise several asymmetry ratios including the extremes.
	const trueOffset = -3_000_000
	cases := [][2]int64{
		{100_000, 900_000}, // back-loaded
		{900_000, 100_000}, // front-loaded
		{500_000, 500_000},
		{1, 999_999}, // nearly all delay on one leg
		{250_000, 750_000},
	}
	for _, d := range cases {
		d := d
		t.Run(fmt.Sprintf("fwd=%d/back=%d", d[0], d[1]), func(t *testing.T) {
			f := &fakeExchange{trueOffset: trueOffset, delays: [][2]int64{d}}
			info, err := EstimateOffset(4, f.exchange)
			if err != nil {
				t.Fatal(err)
			}
			errNs := info.OffsetNs - trueOffset
			if errNs < 0 {
				errNs = -errNs
			}
			if errNs > info.UncertaintyNs {
				t.Fatalf("estimation error %dns exceeds reported uncertainty %dns", errNs, info.UncertaintyNs)
			}
			wantErr := (d[0] - d[1]) / 2
			if wantErr < 0 {
				wantErr = -wantErr
			}
			if errNs != wantErr {
				t.Fatalf("estimation error %dns, analytic asymmetry bias %dns", errNs, wantErr)
			}
		})
	}
}

func TestEstimateOffsetPicksMinRTT(t *testing.T) {
	// A wildly asymmetric slow probe followed by a fast clean one: the fast
	// probe's estimate must win.
	f := &fakeExchange{trueOffset: 1_000_000, delays: [][2]int64{{5_000_000, 100_000}, {10_000, 10_000}}}
	info, err := EstimateOffset(2, f.exchange)
	if err != nil {
		t.Fatal(err)
	}
	if info.OffsetNs != 1_000_000 {
		t.Fatalf("offset = %d: min-RTT probe should have given the exact offset", info.OffsetNs)
	}
}

func TestEstimateOffsetErrors(t *testing.T) {
	fail := fmt.Errorf("boom")
	// All probes failing is fatal.
	f := &fakeExchange{delays: [][2]int64{{1, 1}}, errAt: map[int]error{0: fail, 1: fail, 2: fail}}
	if _, err := EstimateOffset(3, f.exchange); err == nil {
		t.Fatal("want error when every probe fails")
	}
	// A late failure after a good sample keeps the measurement.
	f = &fakeExchange{trueOffset: 42, delays: [][2]int64{{10, 10}}, errAt: map[int]error{1: fail}}
	info, err := EstimateOffset(5, f.exchange)
	if err != nil {
		t.Fatal(err)
	}
	if info.Samples != 1 || info.OffsetNs != 42 {
		t.Fatalf("late probe failure should keep the first sample, got %+v", info)
	}
}

// TestAlignEvents: mergeAligned rebases each source by its own offset, so a
// host that appears in two sources (a replaced rank, one incarnation per
// session) keeps each incarnation's offset; the reference-clock source is
// left as is, the sources are not modified, and the result is start-sorted.
func TestAlignEvents(t *testing.T) {
	first := []Event{{Host: 1, Start: 100, Phase: PhaseCompute}} // runs 50ns behind
	second := []Event{{Host: 1, Start: 90, Phase: PhaseFold}}    // the replacement, 30ns ahead
	local := []Event{
		{Host: 0, Start: 120, Phase: PhaseCompute},
		{Host: 2, Start: 140, Phase: PhaseCompute},
	}
	got := mergeAligned([]clockedEvents{{events: first, offsetNs: 50}, {events: second, offsetNs: -30}, {events: local}})
	want := []Event{
		{Host: 1, Start: 60, Phase: PhaseFold},
		{Host: 0, Start: 120, Phase: PhaseCompute},
		{Host: 2, Start: 140, Phase: PhaseCompute},
		{Host: 1, Start: 150, Phase: PhaseCompute},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if first[0].Start != 100 || second[0].Start != 90 {
		t.Fatal("mergeAligned modified its sources")
	}
}
