package vec

import "math"

// Exp returns e**x, special cases as math.Exp's. It is the FMA branch
// of Go's amd64 math.Exp (math/exp_amd64.s; Shibata's SIMD exp,
// ISC'10) transcribed step by step into Go: each VFNMADD231SD and
// VFMADD213SD a math.FMA, CVTSD2SL a round half to even, every other
// step the one IEEE operation it is. math.FMA is correctly rounded in
// hardware and in software alike, so Exp has the same bits on every
// CPU and GOARCH — equal to math.Exp's wherever that takes its FMA
// branch (TestExpMatchesMath), unlike math.Exp itself, which rounds
// otherwise on FMA-less amd64 CPUs and on other architectures.
//
// Render's intensity pass runs the same sequence in AVX2 lanes
// (data/raster_avx2_amd64.s), one fused op for each math.FMA below.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375 // upper half of ln 2
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	bits := math.Float64bits(x)
	switch {
	case bits == 0xFFF0000000000000: // −Inf
		return 0
	case bits&^(1<<63) >= 0x7FF0000000000000: // NaN or +Inf
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// x = k·ln 2 + r with |r| ≤ ln 2 / 2. Every k below −1075 ends in
	// 0 whatever r is, including the assembly's integer-indefinite k
	// (x·log₂e beyond int32 or −Inf), so it returns before the
	// conversion.
	k := math.RoundToEven(x * log2e)
	if k < -1075 {
		return 0
	}
	e := int(k)
	fk := float64(e) // +0 where k is −0, as CVTSL2SD gives
	r := math.FMA(-ln2U, fk, x)
	r = math.FMA(-ln2L, fk, r)
	// exp(r) = exp(r/16)^16: a Taylor polynomial at r/16, then four
	// squarings of 1 + s as s·(s + 2) on s = exp(·) − 1.
	r *= 0.0625
	p := 2.4801587301587301587e-5
	p = math.FMA(p, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1.0)
	r = float64(r * p)
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	fr := math.FMA(r, r+2, 1.0)
	// fr · 2**k. A subnormal result takes two multiplies, by 2**(k+1022)
	// and then 2**−1022, so it is rounded once, at the end.
	switch b := e + 0x3FF; {
	case b >= 0x7FF:
		return math.Inf(1)
	case b <= 0:
		fr *= math.Float64frombits(uint64(b+0x3FE) << 52)
		return fr * math.Float64frombits(1<<52)
	default:
		return fr * math.Float64frombits(uint64(b)<<52)
	}
}
