package vec

import (
	"math"
	"slices"
	"sync"
)

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
	w, s0, s1, s2, s3 := xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return w
}

// xoshiro is one step of xoshiro256** on the state s0..s3: the output
// word and the next state. Loops that draw many words keep the state in
// locals across steps.
func xoshiro(s0, s1, s2, s3 uint64) (w, t0, t1, t2, t3 uint64) {
	w = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return w, s0, s1, s2, rotl(s3, 45)
}

// unit is Float64's map from a word to [0, 1).
func unit(w uint64) float64 { return float64(w>>11) * (1.0 / (1 << 53)) }

// Split derives an independent generator from r. The derived stream is
// seeded from fresh output of r, so distinct calls yield distinct,
// decorrelated streams; r itself advances.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform sample from [0, 1).
func (r *RNG) Float64() float64 {
	return unit(r.Uint64())
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
	cos, sin := boxMuller(u, v)
	r.gauss = sin
	r.hasGauss = true
	return cos
}

// boxMuller is NormFloat64's transform of one pair of uniforms into its
// cos and sin variates.
func boxMuller(u, v float64) (cos, sin float64) {
	radius := math.Sqrt(-2 * math.Log(u))
	// One range reduction for both variates; Sincos returns the bits
	// Sin and Cos do (TestSincosMatchesSinCos).
	sin, cos = math.Sincos(2 * math.Pi * v)
	return radius * cos, radius * sin
}

// FillNormal fills dst with i.i.d. N(mean, sigma²) samples: element i
// is mean + sigma·(the (i+1)-th NormFloat64 call), and r ends in the
// state those len(dst) calls leave, cached variate included.
func (r *RNG) FillNormal(dst []float64, mean, sigma float64) {
	if useLanes(len(dst)) {
		r.fillNormalLanes(dst, mean, sigma)
		return
	}
	for i := range dst {
		dst[i] = mean + sigma*r.NormFloat64()
	}
}

// normalBatch is how many normals one NormalRun of fillNormalLanes
// transforms: 32 pairs, whose uniforms and variates stay in L1.
const normalBatch = 64

// normalRuns recycles fillNormalLanes' runs, so that its scratch is
// neither allocated per call nor held on the caller's stack.
var normalRuns = sync.Pool{New: func() any { return new(NormalRun) }}

// fillNormalLanes is FillNormal as NormalRuns of up to normalBatch
// normals, each drawn and transformed in one go; len(dst) > 0.
func (r *RNG) fillNormalLanes(dst []float64, mean, sigma float64) {
	run := normalRuns.Get().(*NormalRun)
	for len(dst) > 0 {
		chunk := dst[:min(len(dst), normalBatch)]
		run.Begin(r)
		run.Draw(len(chunk))
		run.End(chunk)
		for i, z := range chunk {
			chunk[i] = mean + sigma*z
		}
		dst = dst[len(chunk):]
	}
	normalRuns.Put(run)
}

// NormalRun replays a run of NormFloat64 calls that its caller
// interleaves with other draws from the same generator — a class index
// by Intn before each row of normals, say — and transforms the run's
// Box–Muller pairs in one batch: on the AVX2 kernel, four pairs to a
// vector, under TierAVX2, and through boxMuller otherwise, with the same
// bits either way (TestBoxMullerLanesMatchMath).
//
// Between Begin(r) and End, Draw(n) stands for n consecutive
// NormFloat64 calls: it draws, in NormFloat64's order, the uniforms of
// every pair those calls would start, and nothing for a call that would
// return a cached sin variate. A variate r holds cached at Begin is the
// run's first normal; when the run ends halfway through a pair, End
// leaves that pair's sin variate cached in r. So any sequence of draws
// in which Draw(n) replaces n NormFloat64 calls consumes r's stream
// exactly as the NormFloat64 calls do, and End writes what they would
// have returned. r must not be asked for normals between Begin and End.
//
// A NormalRun's buffers are reused from one run to the next, so warm
// runs do not allocate. The zero value is ready to use; a NormalRun is
// not safe for concurrent use.
type NormalRun struct {
	r *RNG
	n int // normals drawn
	// first is 1 when the run's first normal is the variate r held
	// cached at Begin, else 0.
	first    int
	u, v     []float64 // pair p's uniforms
	cos, sin []float64 // pair p's variates
}

// Begin starts a run on r, taking over the variate r holds cached.
func (b *NormalRun) Begin(r *RNG) {
	b.r, b.n, b.first = r, 0, 0
	if r.hasGauss {
		b.first, r.hasGauss = 1, false
	}
	b.u, b.v = b.u[:0], b.v[:0]
}

// Draw stands for the next n NormFloat64 calls of the run.
func (b *NormalRun) Draw(n int) {
	b.n += n
	p0, pairs := len(b.u), (b.n-b.first+1)/2
	if pairs <= p0 {
		return
	}
	b.u, b.v = slices.Grow(b.u, pairs-p0)[:pairs], slices.Grow(b.v, pairs-p0)[:pairs]
	// NormFloat64's draws, u redrawn while it is 0, then v, with the
	// generator's state held in locals.
	r, u, v := b.r, b.u, b.v
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var w uint64
	for p := p0; p < pairs; p++ {
		for w, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3); unit(w) == 0; {
			w, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		}
		u[p] = unit(w)
		w, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		v[p] = unit(w)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// End transforms the run and writes its normals to dst[:n], n the
// total of its Draws: element i is what the (i+1)-th NormFloat64 call
// since Begin would have returned.
func (b *NormalRun) End(dst []float64) {
	r, n, i, pairs := b.r, b.n, b.first, len(b.u)
	b.r = nil
	dst = dst[:n]
	if i == 1 {
		if n == 0 {
			r.hasGauss = true
			return
		}
		dst[0] = r.gauss
	}
	cos, sin := grow(b.cos, pairs), grow(b.sin, pairs)
	b.cos, b.sin = cos, sin
	for p := boxMullerLanes(b.u, b.v, cos, sin); p < pairs; p++ {
		cos[p], sin[p] = boxMuller(b.u[p], b.v[p])
	}
	full := (n - i) / 2
	for p, c := range cos[:full] {
		dst[i+2*p], dst[i+2*p+1] = c, sin[p]
	}
	if full < pairs {
		// The run ends halfway through its last pair.
		dst[n-1] = cos[full]
		r.gauss, r.hasGauss = sin[full], true
	}
}

// grow returns s resized to length n, reallocated only when its
// capacity falls short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// NewNormal returns a freshly allocated vector of n i.i.d. N(mean, sigma²)
// samples.
func (r *RNG) NewNormal(n int, mean, sigma float64) []float64 {
	v := make([]float64, n)
	r.FillNormal(v, mean, sigma)
	return v
}
