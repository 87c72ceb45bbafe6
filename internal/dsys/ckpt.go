package dsys

// Checkpoint/restore/rejoin: the survivability layer of the BSP runner.
//
// Checkpoints are taken at round boundaries — the only points where the
// cluster's distributed state is a pure function of per-host local state
// (no messages in flight: every sync and the termination all-reduce have
// completed). A lightweight all-reduce of the round cursor acts as the
// barrier token: it proves every host is snapshotting the same epoch
// without stopping compute for the disk write, which a background
// ckpt.Writer performs asynchronously on copies.
//
// Restore and rejoin share one rendezvous protocol on comm.TagRejoin (see
// rejoinRendezvous). A cold restore is every host entering the rendezvous
// at startup with its newest on-disk epoch; a live rejoin is survivors
// entering it from a *comm.PeerError while a replacement host enters it
// from startup. Either way the cluster agrees on the newest epoch every
// host can load and flushes stale traffic; then every host runs the
// memoization exchange (gluon.New on a host that starts, Memoize on a
// survivor), loads that epoch, and resumes the loop from there. A
// checkpoint holds field state and the frontier only: the exchange orders
// always come from the exchange.

import (
	"fmt"
	"time"

	"gluon/internal/bitset"
	"gluon/internal/ckpt"
	"gluon/internal/comm"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// Checkpointable is implemented by Programs whose field state can be
// exported to and reloaded from a checkpoint. ImportState must decode in
// place (into the same backing arrays the program's gluon.Field accessors
// were built over) so engine variants that alias those arrays — device
// buffers, bit-cast views — observe the restored values.
type Checkpointable interface {
	// ExportState returns the program's field state as named sections.
	// The returned sections must be copies: the checkpoint writer drains
	// them on a background goroutine while the program keeps computing.
	ExportState() ([]ckpt.Section, error)
	// ImportState restores field state from the sections of a checkpoint
	// written by ExportState on the same partition.
	ImportState(secs []ckpt.Section) error
}

// secFrontier is the reserved section the runner adds next to the
// program's own: the BSP frontier bitset's words (fields.EncodeVals).
const secFrontier = "dsys-frontier"

// rejoinTimeout bounds how long the rendezvous waits for each peer
// (survivors waiting out a kill -9 need to outlive operator reaction time).
const rejoinTimeout = 120 * time.Second

// captureSnapshot assembles one host's checkpoint: the program's sections
// plus the runner's frontier. Everything is copied before return, so the
// caller may hand the snapshot to a background writer and immediately
// resume mutating program state.
func captureSnapshot(p *partition.Partition, cp Checkpointable,
	alg string, epoch uint64, frontier *bitset.Bitset) (*ckpt.Snapshot, error) {
	secs, err := cp.ExportState()
	if err != nil {
		return nil, fmt.Errorf("dsys: checkpoint export: %w", err)
	}
	secs = append(secs, ckpt.Section{Name: secFrontier, Data: fields.EncodeVals(nil, frontier.Words())})
	return &ckpt.Snapshot{
		Algorithm: alg,
		Host:      p.HostID,
		NumHosts:  p.NumHosts,
		Epoch:     epoch,
		Sections:  secs,
	}, nil
}

// restoreSnapshot loads snap into the program (in place) and rebuilds the
// frontier bitset. It returns the frontier the loop should resume with.
func restoreSnapshot(p *partition.Partition, cp Checkpointable, snap *ckpt.Snapshot) (*bitset.Bitset, error) {
	fd := snap.Section(secFrontier)
	if fd == nil {
		return nil, fmt.Errorf("dsys: checkpoint epoch %d has no %s section", snap.Epoch, secFrontier)
	}
	n := p.NumProxies()
	words := make([]uint64, (int(n)+63)/64)
	if err := fields.DecodeVals(fd, words); err != nil {
		return nil, fmt.Errorf("dsys: checkpoint frontier: %w", err)
	}
	frontier, err := bitset.FromWords(words, n)
	if err != nil {
		return nil, fmt.Errorf("dsys: checkpoint frontier: %w", err)
	}
	if err := cp.ImportState(snap.Sections); err != nil {
		return nil, fmt.Errorf("dsys: checkpoint import: %w", err)
	}
	return frontier, nil
}

// recvRejoinFrame receives one TagRejoin frame from a specific peer within
// rejoinTimeout. Transports have no timed receive, so the blocking Recv
// runs on a helper goroutine; on timeout the goroutine parks until the
// transport closes (the run is failing anyway) and releases any late
// payload.
func recvRejoinFrame(t comm.Transport, from int) (kind byte, epoch uint64, err error) {
	type result struct {
		payload []byte
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		p, err := t.Recv(from, comm.TagRejoin)
		ch <- result{p, err}
	}()
	timer := time.NewTimer(rejoinTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return 0, 0, r.err
		}
		kind, epoch, err = comm.DecodeRejoinFrame(r.payload)
		comm.PutBuf(r.payload)
		return kind, epoch, err
	case <-timer.C:
		go func() {
			if r := <-ch; r.err == nil {
				comm.PutBuf(r.payload)
			}
		}()
		return 0, 0, fmt.Errorf("dsys: rejoin: no answer from host %d within %v", from, rejoinTimeout)
	}
}

// rejoinRendezvous runs the two-phase HOLD/RESUME agreement that brings
// every host — survivors, restarted hosts, and a freshly dialed replacement
// — to the same checkpoint epoch with clean mailboxes. localEpoch is this
// host's newest complete on-disk epoch; the return value is the cluster
// minimum, the newest epoch every host can load. g is nil on a host that
// has not built its substrate yet.
//
// The protocol leans on per-(sender,tag) FIFO ordering:
//
//  1. Quiesce own sends (gluon.WaitSends), so anything this host already
//     put on the wire precedes its HOLD in every peer's queue.
//  2. Send HOLD(epoch) to all peers, recording each link's connection
//     generation. Send failures to dead peers are tolerated — the dead
//     host's replacement will introduce itself with its own HOLD once it
//     dials in.
//  3. Receive HOLD from every peer. TagRejoin is poison-exempt, so this
//     waits out poisoned mailboxes until the replacement arrives. If the
//     peer's connection generation moved since step 2 (or the send
//     failed outright), this host's HOLD went to a dead incarnation —
//     a write on a dying TCP connection can vanish into the socket
//     buffer without an error — so re-send it on the new link, where the
//     replacement is blocked waiting for it.
//  4. Flush: every peer's HOLD has been consumed, so everything stale
//     that peer sent is already queued locally — dropping all non-rejoin
//     queues and curing poisons (comm.Rejoiner) cannot lose fresh data.
//  5. Send RESUME to all, then receive RESUME from all. A peer leaves the
//     rendezvous — and may send post-rollback data — only after it has
//     received this host's RESUME, which follows this host's flush, so
//     fresh data — first of all the memoization exchange every host runs
//     next — can never race into a queue about to be flushed.
func rejoinRendezvous(t comm.Transport, g *gluon.Gluon, localEpoch uint64) (uint64, error) {
	me, n := t.HostID(), t.NumHosts()
	if g != nil {
		g.WaitSends()
	}
	rj, _ := t.(comm.Rejoiner)
	gens := make([]int, n)
	unreached := make([]bool, n)
	for h := 0; h < n; h++ {
		if h == me {
			continue
		}
		if rj != nil {
			gens[h] = rj.ConnGeneration(h)
		}
		if err := t.Send(h, comm.TagRejoin, comm.EncodeRejoinFrame(comm.RejoinHold, localEpoch)); err != nil {
			// Dead peer: its replacement announces itself with its own
			// HOLD, at which point our HOLD is re-sent over the new link.
			unreached[h] = true
		}
	}
	epoch := localEpoch
	for h := 0; h < n; h++ {
		if h == me {
			continue
		}
		kind, e, err := recvRejoinFrame(t, h)
		if err != nil {
			return 0, err
		}
		if kind == comm.RejoinResume {
			return 0, fmt.Errorf("dsys: rejoin: host %d sent RESUME, want HOLD", h)
		}
		if e < epoch {
			epoch = e
		}
		if unreached[h] || (rj != nil && rj.ConnGeneration(h) != gens[h]) {
			// The peer's HOLD proves its (replacement's) connection is up;
			// deliver ours, which the dead incarnation may have swallowed.
			// HoldReply, not Hold: the peer is already at the rendezvous,
			// and this frame must not re-poison it after its cure.
			if err := t.Send(h, comm.TagRejoin, comm.EncodeRejoinFrame(comm.RejoinHoldReply, localEpoch)); err != nil {
				return 0, fmt.Errorf("dsys: rejoin hold resend to host %d: %w", h, err)
			}
		}
	}
	if rj, ok := t.(comm.Rejoiner); ok {
		rj.FlushAndCure()
	}
	for h := 0; h < n; h++ {
		if h == me {
			continue
		}
		if err := t.Send(h, comm.TagRejoin, comm.EncodeRejoinFrame(comm.RejoinResume, epoch)); err != nil {
			return 0, fmt.Errorf("dsys: rejoin resume to host %d: %w", h, err)
		}
	}
	for h := 0; h < n; h++ {
		if h == me {
			continue
		}
		// Tolerate a bounded number of duplicate HOLD/HoldReply frames
		// ahead of the RESUME: a conn-generation race can make a peer
		// re-send a HOLD this host already received on the live link.
		kind := byte(0)
		for tries := 0; tries < 3; tries++ {
			var err error
			kind, _, err = recvRejoinFrame(t, h)
			if err != nil {
				return 0, err
			}
			if kind == comm.RejoinResume {
				break
			}
		}
		if kind != comm.RejoinResume {
			return 0, fmt.Errorf("dsys: rejoin: host %d sent frame kind %d, want RESUME", h, kind)
		}
	}
	return epoch, nil
}
