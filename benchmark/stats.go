package main

import (
	"math"
	"sort"
	"time"
)

// splitMix64 is the benchmark's only source of randomness: every cell
// seed, proposal ring and arrival trace derives from -seed through it,
// so the generated load never depends on a sampler that is itself under
// test (internal/vec's RNG is on trial in ROADMAP item 2).
type splitMix64 struct {
	state uint64
	// spare caches the second Box–Muller variate.
	spare    float64
	hasSpare bool
}

func newSplitMix64(seed uint64) *splitMix64 { return &splitMix64{state: seed} }

func (s *splitMix64) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fork returns an independent substream, so adding a consumer never
// shifts the draws of another.
func (s *splitMix64) fork() *splitMix64 { return newSplitMix64(s.next()) }

// float returns a uniform draw in [0, 1).
func (s *splitMix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// norm returns a standard normal draw (Box–Muller).
func (s *splitMix64) norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	u := 1 - s.float() // (0, 1]: log stays finite
	r := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * s.float())
	s.spare, s.hasSpare = r*sin, true
	return r * cos
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of values by
// linear interpolation between closest ranks; values need not be
// sorted and are not modified. It returns 0 for an empty slice.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

// midmean is the mean of the middle half of values (the interquartile
// mean): as deaf to tails as a median, but continuous where a median
// jumps. Grid latencies need that — the coordinator's stream flushes on
// a 25 ms tick, so they pile up at about 54 and 79 ms, and a median
// would flip between the piles on a small change of speed.
func midmean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	sum := 0.0
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method) —
// the same arithmetic the driver applies to run-to-run spreads. It
// needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0..4 at the ends: extrapolates, as Python does
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of values as a share of their
// median — how far apart repeated readings of one metric sit. Fewer
// than two values have no spread.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// medianNoise estimates how far the median of values moves by chance,
// as a share of it: their spread over √n. -compare holds it against a
// metric's bound to tell a change from noise.
func medianNoise(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return spread(values) / math.Sqrt(float64(len(values)))
}

// request is one closed-loop request as the load generator saw it.
type request struct {
	client int
	// start and end are offsets from the opening of the measured window.
	start, end time.Duration
	// ops is the work the request carried (cells or rounds); failed of
	// them did not complete correctly.
	ops, failed int
}

func (r request) latencyMs() float64 { return float64(r.end-r.start) / float64(time.Millisecond) }

// segmentRates splits requests — ordered by completion — into n
// consecutive segments of equal request count and returns each
// segment's throughput in ops/s. A segment's time is the busy time of
// its requests divided by the client count: closed-loop clients issue
// back to back, so that equals the segment's wall-clock span, except
// that untimed work between requests (correctness checks) is left out.
// With fewer requests than n, every request is its own segment.
func segmentRates(reqs []request, clients, n int) []float64 {
	if n > len(reqs) {
		n = len(reqs)
	}
	rates := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(reqs)/n, (i+1)*len(reqs)/n
		var busy time.Duration
		ops := 0
		for _, r := range reqs[lo:hi] {
			busy += r.end - r.start
			ops += r.ops
		}
		if busy > 0 {
			rates = append(rates, float64(ops)*float64(clients)/busy.Seconds())
		}
	}
	return rates
}

// segmentLatencyMid returns the midmean request latency of each of the
// same n segments, in milliseconds.
func segmentLatencyMid(reqs []request, n int) []float64 {
	if n > len(reqs) {
		n = len(reqs)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(reqs)/n, (i+1)*len(reqs)/n
		out = append(out, midmean(latencies(reqs[lo:hi])))
	}
	return out
}

func latencies(reqs []request) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = r.latencyMs()
	}
	return out
}
