package dsys

// Cluster watchdog wiring: a trace.Watchdog monitoring a Health table that
// reads this process's hosts straight from their recorders. Hosts in other
// processes are known only by gossip: a process that drives one host of a
// larger cluster (RunSingle) periodically sends a compact fixed-size
// liveness frame (round, live phase, cumulative encode bytes, last-touch
// time) to every peer on the reserved TagHeartbeat and drains the peers'
// frames into the table. A run whose hosts are all local
// (RunWithTransports) gossips nothing. The watchdog flags a round that
// exceeds the trailing-median threshold, names the suspect host and phase,
// and — when the stall persists — escalates through the comm.PeerFailer
// path so every blocked receive in the cluster fails with a
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

// runWatchdog is the per-run (per-process) watchdog instance: the monitor,
// plus the gossip goroutines when the cluster has hosts in other processes.
type runWatchdog struct {
	w    *trace.Watchdog
	quit chan struct{} // closed by stop: ends the gossip
	wg   sync.WaitGroup
}

// startRunWatchdog wires monitoring over the given local endpoints.
// numHosts is the cluster size; when the endpoints are a subset (each
// process drives one host), each also gossips with the hosts outside this
// process. The returned runWatchdog must be stopped after the BSP drivers
// return.
func startRunWatchdog(tr *trace.Trace, eps []wdEndpoint, numHosts int, wcfg trace.WatchdogConfig) *runWatchdog {
	recs := make([]*trace.Recorder, len(eps))
	for i, ep := range eps {
		recs[i] = tr.Recorder(ep.host)
	}
	health := trace.NewHealth(tr.Now, recs...)
	rw := &runWatchdog{quit: make(chan struct{})}
	// Postmortem bundles carry the cluster-wide heartbeat table when the
	// flight recorder is armed (nil-safe when disarmed).
	trace.Armed().SetHealth(health)
	if len(eps) < numHosts {
		gossipEvery := wcfg.Poll
		if gossipEvery <= 0 {
			gossipEvery = 50 * time.Millisecond
		}
		for i, ep := range eps {
			rw.gossip(ep, recs[i], health, numHosts, gossipEvery)
		}
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

// gossip starts ep's two goroutines: a sender that broadcasts the host's
// liveness to every peer each tick, and a drain that writes the peers'
// heartbeats into health.
func (rw *runWatchdog) gossip(ep wdEndpoint, rec *trace.Recorder, health *trace.Health, numHosts int, every time.Duration) {
	rw.wg.Add(2)
	go func() {
		defer rw.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-rw.quit:
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

// stop shuts the gossip down (bye-to-self wakes each drain) and stops the
// monitor. Safe to call with transports already closed.
func (rw *runWatchdog) stop() {
	close(rw.quit)
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

// resumeWatch reverses suspendWatch. After a rollback every host reports
// its smaller round from its next heartbeat on: each slot has one writer,
// so nothing in the table needs clearing.
func (rw *runWatchdog) resumeWatch() {
	if rw == nil {
		return
	}
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
