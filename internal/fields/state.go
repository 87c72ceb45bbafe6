// Checkpoint codec for label arrays. A program's ExportState snapshots its
// per-host field slices into byte sections and ImportState restores them;
// the encoding is the raw little-endian element stream, so a round-trip is
// bit-exact (required for the byte-identical restore guarantee, DESIGN.md
// §4.6). EncodeVals copies — the caller may keep mutating the source slice
// while the checkpoint writer drains the section to disk.
package fields

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// EncodeVals appends the little-endian bytes of vals to dst.
func EncodeVals[V Value](dst []byte, vals []V) []byte {
	buf := bytes.NewBuffer(dst)
	// Cannot fail: a bytes.Buffer accepts every write and []V is fixed-size.
	_ = binary.Write(buf, binary.LittleEndian, vals)
	return buf.Bytes()
}

// DecodeVals fills dst from data; data must hold exactly len(dst) values.
func DecodeVals[V Value](data []byte, dst []V) error {
	if want := binary.Size(dst); len(data) != want {
		return fmt.Errorf("fields: %T section is %d bytes, want %d", dst, len(data), want)
	}
	return binary.Read(bytes.NewReader(data), binary.LittleEndian, dst)
}
