package trace

// Cross-process clock alignment. Each tracing session stamps events with
// nanoseconds since its own epoch, so two processes' traces live on two
// unrelated time axes. The sideband aligns them with an NTP-style offset
// handshake: the client sends its clock reading t0; the server replies with
// its receive time t1 and send time t2; the client notes its receive time
// t3. For one exchange,
//
//	offset = ((t1 - t0) + (t2 - t3)) / 2   (server clock minus client clock)
//	rtt    = (t3 - t0) - (t2 - t1)         (time actually spent on the wire)
//
// The offset estimate is exact when the two network legs are symmetric; an
// asymmetric split of the RTT biases it by at most rtt/2 in either
// direction. Taking the sample with the minimum RTT over several probes
// therefore bounds the alignment error by minRTT/2 — the uncertainty the
// merge records next to each measured offset (DESIGN.md §4.4 derives this).

import "fmt"

// ClockInfo is one measured clock relation: adding Offset to a source-clock
// timestamp maps it onto the reference (collector) clock, with the true
// offset inside ±Uncertainty. Host is -1 when the measurement covers a whole
// process session rather than one host.
type ClockInfo struct {
	Host int32 `json:"host"`
	// OffsetNs is reference-clock minus source-clock, nanoseconds.
	OffsetNs int64 `json:"offset_ns"`
	// UncertaintyNs bounds the offset estimation error: minRTT/2.
	UncertaintyNs int64 `json:"uncertainty_ns"`
	// RTTNs is the minimum round-trip time among the probes.
	RTTNs int64 `json:"rtt_ns"`
	// Samples is the number of successful probe exchanges.
	Samples int `json:"samples"`
}

func (c ClockInfo) String() string {
	return fmt.Sprintf("host %d offset %+dns ±%dns (min rtt %dns over %d probes)",
		c.Host, c.OffsetNs, c.UncertaintyNs, c.RTTNs, c.Samples)
}

// EstimateOffset runs `probes` ping-pong exchanges and returns the offset of
// the remote clock relative to the local one, taken from the minimum-RTT
// sample. exchange performs one round trip and reports the four NTP
// timestamps: t0 local send, t1 remote receive, t2 remote send, t3 local
// receive (t0/t3 on the local clock, t1/t2 on the remote one).
func EstimateOffset(probes int, exchange func() (t0, t1, t2, t3 int64, err error)) (ClockInfo, error) {
	if probes <= 0 {
		probes = 1
	}
	info := ClockInfo{Host: -1}
	bestRTT := int64(-1)
	for i := 0; i < probes; i++ {
		t0, t1, t2, t3, err := exchange()
		if err != nil {
			if info.Samples > 0 {
				break // keep what we have; a flaky late probe is not fatal
			}
			return info, fmt.Errorf("trace: clock probe %d: %w", i, err)
		}
		rtt := (t3 - t0) - (t2 - t1)
		if rtt < 0 {
			continue // clock stepped mid-probe; sample is meaningless
		}
		info.Samples++
		if bestRTT < 0 || rtt < bestRTT {
			bestRTT = rtt
			info.OffsetNs = ((t1 - t0) + (t2 - t3)) / 2
			info.RTTNs = rtt
			info.UncertaintyNs = rtt / 2
		}
	}
	if info.Samples == 0 {
		return info, fmt.Errorf("trace: no usable clock probes (all %d rejected)", probes)
	}
	return info, nil
}

// clockedEvents is one clock domain's contribution to a merged timeline: the
// events one process recorded and the offset that maps its clock onto the
// reference axis.
type clockedEvents struct {
	events   []Event
	offsetNs int64
}

// mergeAligned copies every source's events onto the reference axis and
// returns them as one start-sorted timeline (stable, so equal starts keep
// source order); the sources are left untouched. Each source is rebased on
// its own, so a host that appears in two sources (a replaced rank) keeps
// each incarnation's offset.
func mergeAligned(srcs []clockedEvents) []Event {
	var out []Event
	for _, s := range srcs {
		out = append(out, s.events...)
		for i := len(out) - len(s.events); i < len(out); i++ {
			out[i].Start += s.offsetNs
		}
	}
	sortEventsByStart(out)
	return out
}
