package gio

// Partition serialization: real deployments partition once, offline, and
// each host loads only its own partition at startup (the workflow behind
// the paper's Table 2 timings). The format is little-endian:
//
//	magic "GLPT", version, hostID, numHosts, numMasters  (uint32 each)
//	globalNodes (uint64)
//	policy name (uint32 length + bytes)
//	owner chunk bounds (uint32 count + uint64s)
//	local→global ID vector (uint64s, count = local node count, from graph)
//	local graph in the WriteBinary CSR format

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"gluon/internal/partition"
)

// PartitionMagic identifies the partition format ("GLPT" little-endian).
const PartitionMagic uint32 = 0x54504c47

// WritePartition serializes one host's partition.
func WritePartition(w io.Writer, p *partition.Partition) error {
	bounds := p.Policy.Bounds()
	bw := bufio.NewWriter(w)
	for _, v := range []uint32{PartitionMagic, Version, uint32(p.HostID), uint32(p.NumHosts), p.NumMasters} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, p.GlobalNodes); err != nil {
		return err
	}
	name := p.Policy.Name()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(bounds))); err != nil {
		return err
	}
	scratch := new(chunk)
	if err := writeUint64s(bw, bounds, scratch); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(p.GIDs))); err != nil {
		return err
	}
	if err := writeUint64s(bw, p.GIDs, scratch); err != nil {
		return err
	}
	if err := WriteBinary(bw, p.Graph); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadPartition loads a partition written by WritePartition. The returned
// partition carries a frozen policy: it can run programs but not assign
// new edges.
func ReadPartition(r io.Reader) (*partition.Partition, error) {
	br := bufio.NewReader(r)
	var magic, version, hostID, numHosts, numMasters uint32
	for _, p := range []*uint32{&magic, &version, &hostID, &numHosts, &numMasters} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("gio: partition header: %w", err)
		}
	}
	if magic != PartitionMagic {
		return nil, fmt.Errorf("gio: bad partition magic %#x", magic)
	}
	if version != Version {
		return nil, fmt.Errorf("gio: unsupported partition version %d", version)
	}
	var globalNodes uint64
	if err := binary.Read(br, binary.LittleEndian, &globalNodes); err != nil {
		return nil, err
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen > 64 {
		return nil, fmt.Errorf("gio: implausible policy name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, err
	}
	var boundsLen uint32
	if err := binary.Read(br, binary.LittleEndian, &boundsLen); err != nil {
		return nil, err
	}
	if uint64(boundsLen) != uint64(numHosts)+1 {
		return nil, fmt.Errorf("gio: %d bounds for %d hosts", boundsLen, numHosts)
	}
	bounds, err := readInts[uint64](br, uint64(boundsLen))
	if err != nil {
		return nil, err
	}
	pol, err := partition.Frozen(string(nameBuf), bounds)
	if err != nil {
		return nil, err
	}

	var gidCount uint32
	if err := binary.Read(br, binary.LittleEndian, &gidCount); err != nil {
		return nil, err
	}
	gids, err := readInts[uint64](br, uint64(gidCount))
	if err != nil {
		return nil, err
	}
	g, err := ReadBinary(br)
	if err != nil {
		return nil, fmt.Errorf("gio: partition graph: %w", err)
	}
	return partition.Reassemble(int(hostID), pol, g, gids, numMasters, globalNodes)
}
