package gluon

import (
	"encoding/binary"
	"math"
)

// Value constrains the node-field element types Gluon can synchronize:
// fixed-width numerics with a defined little-endian wire encoding. The
// paper's benchmarks all use 32-bit labels; 64-bit and float fields are
// supported for pagerank-style algorithms.
type Value interface {
	uint32 | uint64 | int32 | int64 | float32 | float64
}

// putVals writes vals little-endian at b[off], b[off+stride], …: one type
// dispatch per message, then a tight typed loop.
func putVals[V Value](b []byte, off, stride int, vals []V) {
	switch vals := any(vals).(type) {
	case []uint32:
		for i, v := range vals {
			le.PutUint32(b[off+i*stride:], v)
		}
	case []int32:
		for i, v := range vals {
			le.PutUint32(b[off+i*stride:], uint32(v))
		}
	case []float32:
		for i, v := range vals {
			le.PutUint32(b[off+i*stride:], math.Float32bits(v))
		}
	case []uint64:
		for i, v := range vals {
			le.PutUint64(b[off+i*stride:], v)
		}
	case []int64:
		for i, v := range vals {
			le.PutUint64(b[off+i*stride:], uint64(v))
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
	case []int32:
		for i := range dst {
			dst[i] = int32(le.Uint32(b[off+i*stride:]))
		}
	case []float32:
		for i := range dst {
			dst[i] = math.Float32frombits(le.Uint32(b[off+i*stride:]))
		}
	case []uint64:
		for i := range dst {
			dst[i] = le.Uint64(b[off+i*stride:])
		}
	case []int64:
		for i := range dst {
			dst[i] = int64(le.Uint64(b[off+i*stride:]))
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
	case uint32, int32, float32:
		return 4
	default:
		return 8
	}
}
