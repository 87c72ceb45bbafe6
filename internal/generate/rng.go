package generate

// rng is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style core seeded by splitmix64). Generators in this package
// must be reproducible across runs and platforms so that experiments are
// repeatable; stdlib math/rand would also work, but a local implementation
// pins the sequence independent of Go release behaviour.
type rng struct {
	s [4]uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newRNG(seed uint64) *rng {
	r := &rng{}
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next is one xoshiro256** step on a state passed by value, so that fill
// can keep the state in registers for a whole loop.
func next(s0, s1, s2, s3 uint64) (result, n0, n1, n2, n3 uint64) {
	result = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return result, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *rng) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = next(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// unit maps 64 random bits to a uniform float64 in [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Float64 returns a uniform float64 in [0, 1).
func (r *rng) Float64() float64 { return unit(r.Uint64()) }

// fill sets dst to the next len(dst) values Float64 would return.
func (r *rng) fill(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x uint64
	for i := range dst {
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		dst[i] = unit(x)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *rng) Uint64n(n uint64) uint64 {
	// Lemire's multiply-shift rejection method.
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}
