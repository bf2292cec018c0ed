package vec

import "math"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded through SplitMix64). It exists so that every
// experiment in the repository is reproducible from a single integer
// seed, and so that substreams handed to concurrent workers are
// statistically independent (Split) without any shared mutable state —
// the guides' "avoid mutable globals" rule applied to randomness.
//
// The zero value is NOT usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
	// gauss caches the second variate of the Box–Muller pair.
	gauss    float64
	hasGauss bool
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

// splitMix64 advances the SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent generator from r. The derived stream is
// seeded from fresh output of r, so distinct calls yield distinct,
// decorrelated streams; r itself advances.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform sample from [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform sample from {0, ..., n-1}. It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vec: RNG.Intn with non-positive n")
	}
	// A plain modulo, not a rejection sampler: the bias is below
	// n/2^64, under 2^-40 for every n < 2^24 — far beyond what any
	// experiment here can resolve — and costs exactly one draw.
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample (Box–Muller transform).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	// One range reduction for both variates; Sincos returns the bits
	// Sin and Cos do (TestSincosMatchesSinCos).
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.gauss = radius * sin
	r.hasGauss = true
	return radius * cos
}

// FillNormal fills dst with i.i.d. N(mean, sigma²) samples.
func (r *RNG) FillNormal(dst []float64, mean, sigma float64) {
	for i := range dst {
		dst[i] = mean + sigma*r.NormFloat64()
	}
}

// NewNormal returns a freshly allocated vector of n i.i.d. N(mean, sigma²)
// samples.
func (r *RNG) NewNormal(n int, mean, sigma float64) []float64 {
	v := make([]float64, n)
	r.FillNormal(v, mean, sigma)
	return v
}
