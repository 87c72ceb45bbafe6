package dsys

// Cluster watchdog wiring: heartbeat gossip over the data transport plus a
// trace.Watchdog monitoring the gossip. Hosts periodically broadcast a
// compact fixed-size liveness frame (round, live phase, cumulative encode
// bytes, last-touch time) on the reserved TagHeartbeat; every endpoint also
// drains incoming heartbeats into a shared Health table. The watchdog flags
// a round that exceeds the trailing-median threshold, names the suspect
// host and phase, and — when the stall persists — escalates through the
// comm.PeerFailer path so every blocked receive in the cluster fails with a
// *comm.PeerError wrapping the *trace.StallError diagnosis instead of
// hanging forever.
//
// The gossip is fire-and-forget: send errors are ignored (a dying transport
// ends the gossip, it never fails the run), frames are pooled, and nothing
// here touches the sync hot path — when RunConfig.Watchdog is nil none of
// this code runs at all.

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"gluon/internal/comm"
	"gluon/internal/trace"
)

// hbFrameLen is the heartbeat wire size: host(4) round(4) phase(1) flags(1)
// bytes(8) beat(8), little-endian.
const hbFrameLen = 26

// heartbeat frame flags.
const hbFlagBye = 1 // sender is shutting its gossip down (sent to self)

func encodeHeartbeat(buf []byte, hb trace.Heartbeat, flags byte) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(hb.Host))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(hb.Round))
	buf[8] = byte(hb.Phase)
	buf[9] = flags
	binary.LittleEndian.PutUint64(buf[10:18], hb.Bytes)
	binary.LittleEndian.PutUint64(buf[18:26], uint64(hb.BeatNs))
}

func decodeHeartbeat(b []byte) (hb trace.Heartbeat, flags byte, err error) {
	if len(b) != hbFrameLen {
		return hb, 0, fmt.Errorf("dsys: heartbeat frame is %d bytes, want %d", len(b), hbFrameLen)
	}
	hb.Host = int32(binary.LittleEndian.Uint32(b[0:4]))
	hb.Round = int32(binary.LittleEndian.Uint32(b[4:8]))
	hb.Phase = trace.Phase(b[8])
	flags = b[9]
	hb.Bytes = binary.LittleEndian.Uint64(b[10:18])
	hb.BeatNs = int64(binary.LittleEndian.Uint64(b[18:26]))
	return hb, flags, nil
}

// wdEndpoint is one locally-driven host: its rank and its transport.
type wdEndpoint struct {
	host int
	t    comm.Transport
}

// runWatchdog is the per-run (per-process) watchdog instance: gossip
// goroutines for every local endpoint plus the monitor.
type runWatchdog struct {
	w      *trace.Watchdog
	health *trace.Health
	stops  []chan struct{}
	wg     sync.WaitGroup
}

// startRunWatchdog wires gossip and monitoring over the given local
// endpoints. numHosts is the cluster size (endpoints may be a subset when
// each process drives one host). The returned runWatchdog must be stopped
// after the BSP drivers return.
func startRunWatchdog(tr *trace.Trace, eps []wdEndpoint, numHosts int, wcfg trace.WatchdogConfig) *runWatchdog {
	health := trace.NewHealth(tr.Now)
	rw := &runWatchdog{health: health}
	// Postmortem bundles carry the cluster-wide heartbeat table when the
	// flight recorder is armed (nil-safe when disarmed).
	trace.Armed().SetHealth(health)

	gossipEvery := wcfg.Poll
	if gossipEvery <= 0 {
		gossipEvery = 50 * time.Millisecond
	}
	for _, ep := range eps {
		ep := ep
		rec := tr.Recorder(ep.host)
		stop := make(chan struct{})
		rw.stops = append(rw.stops, stop)
		// Publisher: this host's liveness into the local table every tick,
		// on its own goroutine so a slow outbound link never leaves the
		// watchdog looking at a stale heartbeat of a host in this process.
		rw.wg.Add(1)
		go func() {
			defer rw.wg.Done()
			tick := time.NewTicker(gossipEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					health.Update(trace.HeartbeatOf(rec))
				}
			}
		}()
		// Sender: gossip this host's liveness to every peer.
		rw.wg.Add(1)
		go func() {
			defer rw.wg.Done()
			tick := time.NewTicker(gossipEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					// Wake the drain loop with a bye-to-self; Send-to-self
					// loops back locally on every transport.
					buf := comm.GetBuf(hbFrameLen)
					encodeHeartbeat(buf, trace.HeartbeatOf(rec), hbFlagBye)
					_ = ep.t.Send(ep.host, comm.TagHeartbeat, buf)
					return
				case <-tick.C:
					hb := trace.HeartbeatOf(rec)
					for peer := 0; peer < numHosts; peer++ {
						if peer == ep.host {
							continue
						}
						buf := comm.GetBuf(hbFrameLen)
						encodeHeartbeat(buf, hb, 0)
						// Fire-and-forget: a failed peer's heartbeats simply
						// stop; the watchdog notices the silence, not the error.
						_ = ep.t.Send(peer, comm.TagHeartbeat, buf)
					}
				}
			}
		}()
		// Drain: fold incoming gossip into the shared health table.
		rw.wg.Add(1)
		go func() {
			defer rw.wg.Done()
			for {
				from, payload, err := ep.t.RecvAny(comm.TagHeartbeat, nil)
				if err != nil {
					return // transport closed or peer poisoned; gossip is over
				}
				hb, flags, derr := decodeHeartbeat(payload)
				comm.PutBuf(payload)
				if derr != nil {
					continue
				}
				if flags&hbFlagBye != 0 && from == ep.host {
					return
				}
				health.Update(hb)
			}
		}()
	}

	// Escalated stalls fail the cluster through the PeerError path: the
	// suspect's own endpoint (if local) poisons all its peers so the suspect
	// unblocks too, and every other endpoint poisons the suspect.
	userReport := wcfg.OnReport
	wcfg.OnReport = func(r *trace.StallReport) {
		if userReport != nil {
			userReport(r)
		}
		if !r.Escalated {
			return
		}
		stallErr := &trace.StallError{Report: r}
		// Freeze a postmortem before the PeerError cascade starts: the stall
		// bundle names the suspect (Peer) so doctor can attribute the death
		// even though the detector, not the suspect, writes it.
		if len(eps) > 0 {
			trace.Crash(trace.DumpInfo{
				Trigger: trace.TriggerStall,
				Host:    eps[0].host,
				Peer:    int(r.Suspect),
				Round:   int(r.Round),
				Phase:   r.Phase,
				Cause:   stallErr,
				Detail:  r.String(),
			})
		}
		for _, ep := range eps {
			pf, ok := ep.t.(comm.PeerFailer)
			if !ok {
				continue
			}
			if int32(ep.host) == r.Suspect {
				for peer := 0; peer < numHosts; peer++ {
					if peer != ep.host {
						pf.FailPeer(peer, stallErr)
					}
				}
			} else {
				pf.FailPeer(int(r.Suspect), stallErr)
			}
		}
	}
	if wcfg.Log == nil {
		// Fail loudly by default, through the shared logger so stall
		// paragraphs also land in postmortem bundles' recent-log rings.
		wcfg.Log = trace.LogWriter(trace.NewLogger("dsys"), slog.LevelWarn)
	}
	rw.w = trace.StartWatchdog(health, wcfg)
	return rw
}

// stop shuts the gossip down (bye-to-self wakes each drain) and stops the
// monitor. Safe to call with transports already closed.
func (rw *runWatchdog) stop() {
	for _, ch := range rw.stops {
		close(ch)
	}
	rw.wg.Wait()
	rw.w.Stop()
}

// suspendWatch pauses stall escalation for a declared quiet window — a
// checkpoint barrier token or a rejoin rendezvous — so the watchdog does
// not read deliberate holding as a stall and fail a recovering cluster.
// Nil-safe: a run without a watchdog calls through freely. Suspensions
// nest (multiple local hosts checkpointing concurrently each suspend).
func (rw *runWatchdog) suspendWatch() {
	if rw == nil {
		return
	}
	rw.w.Suspend()
}

// resumeWatch reverses suspendWatch and clears the health table: after a
// rollback, hosts legitimately gossip SMALLER round numbers, which the
// table's stale-heartbeat filter would otherwise discard forever.
func (rw *runWatchdog) resumeWatch() {
	if rw == nil {
		return
	}
	rw.health.Reset()
	rw.w.Resume()
}

// ensureLivenessTrace guarantees cfg carries a Trace for the watchdog's
// liveness atomics. When the caller did not ask for tracing, the session is
// created disabled: SetRound/SetLivePhase still publish heartbeats (plain
// atomic stores), but Emit discards before touching any ring, so the sync
// hot path stays allocation-free.
func ensureLivenessTrace(cfg *RunConfig) {
	if cfg.Trace == nil {
		cfg.Trace = trace.New(trace.Config{Capacity: 1 << 10})
		cfg.Trace.SetEnabled(false)
	}
}
