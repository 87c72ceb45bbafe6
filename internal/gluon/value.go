package gluon

import (
	"encoding/binary"
	"math"
)

// Value constrains the node-field element types Gluon can synchronize: the
// three the programs sync (32-bit labels, 64-bit counts and float64
// values), each with a little-endian wire encoding.
type Value interface {
	uint32 | uint64 | float64
}

// putVals writes vals little-endian at b[off], b[off+stride], …: one type
// dispatch per message, then a tight typed loop.
func putVals[V Value](b []byte, off, stride int, vals []V) {
	switch vals := any(vals).(type) {
	case []uint32:
		for i, v := range vals {
			le.PutUint32(b[off+i*stride:], v)
		}
	case []uint64:
		for i, v := range vals {
			le.PutUint64(b[off+i*stride:], v)
		}
	case []float64:
		for i, v := range vals {
			le.PutUint64(b[off+i*stride:], math.Float64bits(v))
		}
	}
}

// getVals is the inverse of putVals: it fills dst from the little-endian
// values at b[off], b[off+stride], …, again with one type dispatch per
// message. The caller has checked that b holds them.
func getVals[V Value](b []byte, off, stride int, dst []V) {
	switch dst := any(dst).(type) {
	case []uint32:
		for i := range dst {
			dst[i] = le.Uint32(b[off+i*stride:])
		}
	case []uint64:
		for i := range dst {
			dst[i] = le.Uint64(b[off+i*stride:])
		}
	case []float64:
		for i := range dst {
			dst[i] = math.Float64frombits(le.Uint64(b[off+i*stride:]))
		}
	}
}

var le = binary.LittleEndian

// wireSize returns the number of wire bytes one V occupies.
func wireSize[V Value]() int {
	switch any(*new(V)).(type) {
	case uint32:
		return 4
	default:
		return 8
	}
}
