package partition

// Distributed graph construction: the paper's loading path (§4.1 — "each
// host reads from disk a subset of edges assigned to it and receives from
// other hosts the rest of the edges assigned to it"). Each host starts
// with an arbitrary shard of the edge list (e.g. a contiguous byte range
// of the input file), routes every edge to the host the policy assigns it
// to through the transport, and builds its local partition from what it
// keeps plus what it receives.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"gluon/internal/comm"
	"gluon/internal/graph"
)

const tagEdges comm.Tag = comm.TagUser + 9000

// edgeWire is the on-the-wire size of one edge (src, dst uint64 + weight
// uint32).
const edgeWire = 20

// Distribute builds this host's partition from an arbitrary local edge
// shard: edges are exchanged so each lands on the host the policy assigns
// it to. All hosts must call Distribute collectively with the same policy
// and node count; the union of shards must be the whole graph. The
// weighted flag must be agreed globally (it cannot be inferred from a
// shard that happens to hold only zero-weight edges).
func Distribute(numNodes uint64, shard []graph.Edge, pol Policy, t comm.Transport, weighted bool) (*Partition, error) {
	hosts := pol.NumHosts()
	if t.NumHosts() != hosts {
		return nil, fmt.Errorf("partition: policy for %d hosts on a %d-host transport", hosts, t.NumHosts())
	}
	me := t.HostID()

	// Route the shard count → scatter: one pass validates the endpoints and
	// computes each edge's host once, the second fills exactly-sized
	// per-destination buffers.
	hostOf := make([]uint16, len(shard))
	counts := make([]int, hosts)
	var bad error
	for i, e := range shard {
		if e.Src >= numNodes || e.Dst >= numNodes {
			bad = &EdgeRangeError{Index: i, Src: e.Src, Dst: e.Dst, NumNodes: numNodes}
			break
		}
		h := pol.EdgeHost(e.Src, e.Dst)
		hostOf[i] = uint16(h)
		counts[h]++
	}
	outbound := make([][]graph.Edge, hosts)
	if bad == nil {
		for h := range outbound {
			outbound[h] = make([]graph.Edge, 0, counts[h])
		}
		for i, e := range shard {
			outbound[hostOf[i]] = append(outbound[hostOf[i]], e)
		}
	}

	// Exchange: one message per peer (possibly empty), sends overlapped
	// with receives. A host whose shard is invalid still sends every peer a
	// message — the abort marker — so the collective fails everywhere
	// instead of leaving the peers blocked in Recv.
	sendErr := make(chan error, 1)
	go func() {
		for h := 0; h < hosts; h++ {
			if h == me {
				continue
			}
			batch := binary.LittleEndian.AppendUint32(nil, abortCount)
			if bad == nil {
				batch = encodeEdges(outbound[h])
			}
			if err := t.Send(h, tagEdges, batch); err != nil {
				sendErr <- fmt.Errorf("partition: shipping edges to host %d: %w", h, err)
				return
			}
		}
		sendErr <- nil
	}()
	if bad != nil {
		<-sendErr // the typed error outranks a failure to announce it
		return nil, bad
	}
	received := make([][]graph.Edge, hosts) // by sender; nothing from myself
	total := len(outbound[me])
	for h := 0; h < hosts; h++ {
		if h == me {
			continue
		}
		payload, err := t.Recv(h, tagEdges)
		if err != nil {
			return nil, fmt.Errorf("partition: receiving edges from host %d: %w", h, err)
		}
		if received[h], err = decodeEdges(payload); err != nil {
			return nil, fmt.Errorf("partition: edges from host %d: %w", h, err)
		}
		total += len(received[h])
	}
	if err := <-sendErr; err != nil {
		return nil, err
	}
	// Own edges first, then each peer's in host order.
	mine := make([]graph.Edge, 0, total)
	mine = append(mine, outbound[me]...)
	for _, got := range received {
		mine = append(mine, got...)
	}
	return buildLocal(me, numNodes, mine, pol, weighted)
}

// DistributeAll is the in-process convenience: splits edges into contiguous
// shards (simulating per-host disk ranges) and runs Distribute on every
// host of the hub concurrently.
func DistributeAll(numNodes uint64, edges []graph.Edge, pol Policy, hub *comm.Hub, weighted bool) ([]*Partition, error) {
	hosts := pol.NumHosts()
	parts := make([]*Partition, hosts)
	errs := make([]error, hosts)
	done := make(chan int, hosts)
	chunk := (len(edges) + hosts - 1) / hosts
	for h := 0; h < hosts; h++ {
		lo := h * chunk
		hi := lo + chunk
		if lo > len(edges) {
			lo = len(edges)
		}
		if hi > len(edges) {
			hi = len(edges)
		}
		go func(h, lo, hi int) {
			parts[h], errs[h] = Distribute(numNodes, edges[lo:hi], pol, hub.Endpoint(h), weighted)
			done <- h
		}(h, lo, hi)
	}
	for i := 0; i < hosts; i++ {
		<-done
	}
	// Report the cause, not a peer's view of it: a host that aborted over
	// an invalid shard makes every other host fail with errSenderAborted.
	var first error
	for h, err := range errs {
		if err != nil && (first == nil || errors.Is(first, errSenderAborted) && !errors.Is(err, errSenderAborted)) {
			first = fmt.Errorf("partition: host %d: %w", h, err)
		}
	}
	if first != nil {
		return nil, first
	}
	return parts, nil
}

func encodeEdges(edges []graph.Edge) []byte {
	buf := make([]byte, 4+len(edges)*edgeWire)
	binary.LittleEndian.PutUint32(buf, uint32(len(edges)))
	off := 4
	for _, e := range edges {
		binary.LittleEndian.PutUint64(buf[off:], e.Src)
		binary.LittleEndian.PutUint64(buf[off+8:], e.Dst)
		binary.LittleEndian.PutUint32(buf[off+16:], e.Weight)
		off += edgeWire
	}
	return buf
}

// abortCount in a batch's count field marks a sender that found an invalid
// edge in its shard and ships nothing; the receiver fails with
// errSenderAborted.
const abortCount = math.MaxUint32

var errSenderAborted = errors.New("sender aborted: its shard holds an invalid edge")

func decodeEdges(payload []byte) ([]graph.Edge, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("short edge batch")
	}
	count := binary.LittleEndian.Uint32(payload)
	if count == abortCount && len(payload) == 4 {
		return nil, errSenderAborted
	}
	n := int(count)
	if len(payload) != 4+n*edgeWire {
		return nil, fmt.Errorf("edge batch: %d bytes for %d edges", len(payload), n)
	}
	edges := make([]graph.Edge, n)
	off := 4
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    binary.LittleEndian.Uint64(payload[off:]),
			Dst:    binary.LittleEndian.Uint64(payload[off+8:]),
			Weight: binary.LittleEndian.Uint32(payload[off+16:]),
		}
		off += edgeWire
	}
	return edges, nil
}
