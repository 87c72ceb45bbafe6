// Package gio reads and writes graphs in two on-disk formats:
//
//   - a text edge list: one "src dst [weight]" per line, '#' comments, the
//     lingua franca of SNAP-style datasets; and
//   - a binary format modeled on Galois' .gr files: a fixed little-endian
//     header (magic, version, flags, node and edge counts) followed by the
//     CSR offset, destination, and optional weight arrays.
//
// The binary format is what the distributed loaders use; the paper's Table 2
// measures loading+partitioning+construction time, which cmd/gluon-bench
// reproduces over these readers.
package gio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gluon/internal/graph"
)

// Magic identifies the binary graph format ("GLGR" little-endian).
const Magic uint32 = 0x52474c47

// Version of the binary format.
const Version uint32 = 1

const flagWeighted uint32 = 1

// WriteEdgeList writes edges as "src dst [weight]" lines.
func WriteEdgeList(w io.Writer, edges []graph.Edge, weighted bool) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		var err error
		if weighted {
			_, err = fmt.Fprintf(bw, "%d %d %d\n", e.Src, e.Dst, e.Weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a text edge list. Lines starting with '#' or '%' are
// comments; fields are whitespace-separated. The third field, when present,
// is the edge weight. It returns the edges and the implied node count
// (max ID + 1).
func ReadEdgeList(r io.Reader) ([]graph.Edge, uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	var maxID uint64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("gio: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("gio: line %d: bad src: %v", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("gio: line %d: bad dst: %v", lineNo, err)
		}
		e := graph.Edge{Src: src, Dst: dst}
		if len(fields) >= 3 {
			w, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, 0, fmt.Errorf("gio: line %d: bad weight: %v", lineNo, err)
			}
			e.Weight = uint32(w)
		}
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	n := uint64(0)
	if len(edges) > 0 {
		n = maxID + 1
	}
	return edges, n, nil
}

// WriteBinary writes g in the binary CSR format. The arrays go out in
// chunk-sized writes, which bypass the default-size buffer.
func WriteBinary(w io.Writer, g *graph.CSR) error {
	bw := bufio.NewWriter(w)
	flags := uint32(0)
	if g.HasWeights {
		flags |= flagWeighted
	}
	hdr := []uint32{Magic, Version, flags}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.NumNodes())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.NumEdges()); err != nil {
		return err
	}
	scratch := new(chunk)
	if err := writeUint64s(bw, g.Offsets, scratch); err != nil {
		return err
	}
	if err := writeUint32s(bw, g.Dst, scratch); err != nil {
		return err
	}
	if g.HasWeights {
		if err := writeUint32s(bw, g.Weights, scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*graph.CSR, error) {
	br := bufio.NewReader(r)
	var magic, version, flags uint32
	for _, p := range []*uint32{&magic, &version, &flags} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("gio: reading header: %w", err)
		}
	}
	if magic != Magic {
		return nil, fmt.Errorf("gio: bad magic %#x", magic)
	}
	if version != Version {
		return nil, fmt.Errorf("gio: unsupported version %d", version)
	}
	var numNodes, numEdges uint64
	if err := binary.Read(br, binary.LittleEndian, &numNodes); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &numEdges); err != nil {
		return nil, err
	}
	if numNodes > 1<<32-1 {
		return nil, fmt.Errorf("gio: %d nodes exceeds local ID space", numNodes)
	}
	g := &graph.CSR{HasWeights: flags&flagWeighted != 0}
	var err error
	if g.Offsets, err = readInts[uint64](br, numNodes+1); err != nil {
		return nil, err
	}
	if g.Dst, err = readInts[uint32](br, numEdges); err != nil {
		return nil, err
	}
	if g.HasWeights {
		if g.Weights, err = readInts[uint32](br, numEdges); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gio: corrupt graph: %w", err)
	}
	return g, nil
}

// chunk is the scratch the array writers encode through; each exported
// write call allocates one and hands it to every array it writes.
type chunk [32 << 10]byte

func writeUint64s(w io.Writer, vals []uint64, buf *chunk) error {
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func writeUint32s(w io.Writer, vals []uint32, buf *chunk) error {
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/4)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], v)
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// readInts reads n little-endian values. The slice grows as the bytes
// arrive, so a count from a corrupt header ends in an error where the input
// ends, not in an allocation of the size it claims.
func readInts[T uint32 | uint64](r io.Reader, n uint64) ([]T, error) {
	const chunk = 4096
	out := make([]T, 0, min(n, chunk))
	for uint64(len(out)) < n {
		k := int(min(n-uint64(len(out)), chunk))
		out = append(out, make([]T, k)...)
		if err := binary.Read(r, binary.LittleEndian, out[len(out)-k:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
