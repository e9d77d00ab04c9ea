package trace

import "math"

// rng is a small, fast, deterministic PRNG (xorshift64* family, seeded via
// SplitMix64). The generator must be reproducible across runs and cheap
// enough to call several times per synthesized instruction, which rules out
// math/rand's locked global state.
type rng struct{ state uint64 }

// newRNG returns a generator seeded from seed via SplitMix64 so that
// similar seeds still produce uncorrelated streams.
func newRNG(seed uint64) *rng {
	r := &rng{state: seed}
	// One SplitMix64 scramble; also ensures a non-zero xorshift state.
	r.state = splitmix64(&r.state)
	if r.state == 0 {
		r.state = 0x9e3779b97f4a7c15
	}
	return r
}

func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next64 returns the next 64 random bits.
func (r *rng) next64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next64()>>11) / (1 << 53)
}

// intn returns a uniform value in [0, n). n must be positive.
func (r *rng) intn(n int) int {
	return int(r.next64() % uint64(n))
}

// geometric returns a sample from a geometric distribution with success
// probability p (thresh = drawThreshold(p)): the number of trials until the
// first success, capped at cap to keep lookback windows bounded. p >= 1
// (a mean of at most 1) returns 1 without drawing.
func (r *rng) geometric(thresh uint64, cap int) int {
	if thresh >= 1<<53 {
		return 1
	}
	n := 1
	for !r.below(thresh) && n < cap {
		n++
	}
	return n
}

// drawThreshold returns ceil(p*2^53), the least 53-bit draw u for which
// float64() = u/2^53 is >= p (both sides are exact: u < 2^53 and the
// scaling is by a power of two). Comparing raw draws against it gives the
// float comparison's outcomes without converting each draw.
func drawThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// bool returns true with probability p.
func (r *rng) bool(p float64) bool { return r.float64() < p }

// below returns true with probability p, given thresh = drawThreshold(p):
// the same draw and outcome as bool(p), without the float conversion.
func (r *rng) below(thresh uint64) bool { return r.next64()>>11 < thresh }
