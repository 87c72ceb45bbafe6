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

// codec is the read side of one Value type's wire form: its size and the
// little-endian decoder. decodeBody resolves it once per message (codecOf),
// so the per-value work inside its loops is a plain function call, not a
// type switch.
type codec[V Value] struct {
	size int // wire bytes per value
	get  func(b []byte) V
}

var le = binary.LittleEndian

var (
	codecU32 = codec[uint32]{4, le.Uint32}
	codecU64 = codec[uint64]{8, le.Uint64}
	codecI32 = codec[int32]{4, func(b []byte) int32 { return int32(le.Uint32(b)) }}
	codecI64 = codec[int64]{8, func(b []byte) int64 { return int64(le.Uint64(b)) }}
	codecF32 = codec[float32]{4, func(b []byte) float32 { return math.Float32frombits(le.Uint32(b)) }}
	codecF64 = codec[float64]{8, func(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) }}
)

// codecOf returns V's wire codec.
func codecOf[V Value]() *codec[V] {
	var c any
	switch any(*new(V)).(type) {
	case uint32:
		c = &codecU32
	case uint64:
		c = &codecU64
	case int32:
		c = &codecI32
	case int64:
		c = &codecI64
	case float32:
		c = &codecF32
	default:
		c = &codecF64
	}
	return c.(*codec[V])
}
