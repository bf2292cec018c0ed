package data

import (
	"fmt"
	"math"
	"testing"

	"krum/internal/vec"
)

// renderReference is Render as it stood before the multi-pass
// rasteriser, kept verbatim: pixel-outer, one segmentDist (with its own
// sqrt and division) per pixel and stroke, the skeleton transformed
// into a fresh slice. TestRenderMatchesReference pins the rewrite to it
// bit for bit.
func renderReference(m *SyntheticMNIST, rng *vec.RNG, digit int, img []float64) {
	// Random geometric jitter.
	dx := 0.12 * (rng.Float64() - 0.5)
	dy := 0.12 * (rng.Float64() - 0.5)
	scale := 0.85 + 0.3*rng.Float64()
	theta := 0.24 * (rng.Float64() - 0.5)
	sin, cos := math.Sin(theta), math.Cos(theta)
	thickness := 0.035 + 0.03*rng.Float64()
	soft := 0.5 * thickness

	// Transform the skeleton once.
	strokes := digitStrokes[digit]
	txs := make([]segment, len(strokes))
	for i, s := range strokes {
		txs[i] = segment{
			x1: transformX(s.x1, s.y1, scale, sin, cos) + dx,
			y1: transformY(s.x1, s.y1, scale, sin, cos) + dy,
			x2: transformX(s.x2, s.y2, scale, sin, cos) + dx,
			y2: transformY(s.x2, s.y2, scale, sin, cos) + dy,
		}
	}

	sz := float64(m.size)
	for py := 0; py < m.size; py++ {
		cy := (float64(py) + 0.5) / sz
		for px := 0; px < m.size; px++ {
			cx := (float64(px) + 0.5) / sz
			d := math.Inf(1)
			for _, s := range txs {
				if sd := segmentDist(cx, cy, s); sd < d {
					d = sd
				}
			}
			var intensity float64
			switch {
			case d <= thickness:
				intensity = 1
			default:
				t := (d - thickness) / soft
				intensity = math.Exp(-t * t)
			}
			if m.noise > 0 {
				intensity += m.noise * rng.NormFloat64()
			}
			if intensity < 0 {
				intensity = 0
			} else if intensity > 1 {
				intensity = 1
			}
			img[py*m.size+px] = intensity
		}
	}
}

// segmentDist returns the Euclidean distance from point (px, py) to the
// segment s.
func segmentDist(px, py float64, s segment) float64 {
	vx, vy := s.x2-s.x1, s.y2-s.y1
	wx, wy := px-s.x1, py-s.y1
	len2 := vx*vx + vy*vy
	var t float64
	if len2 > 0 {
		t = (wx*vx + wy*vy) / len2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	dx := px - (s.x1 + t*vx)
	dy := py - (s.y1 + t*vy)
	return math.Sqrt(dx*dx + dy*dy)
}

// forEachTier runs f as one subtest per available kernel tier, with that
// tier forced: Render's Go loop under go and sse2, its AVX2 kernel
// (raster_avx2_amd64.s) and FillNormal's under avx2.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range vec.AvailableTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			restore, err := vec.SetKernelTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(restore)
			f(t)
		})
	}
}

// TestRasterLanesGate is what "the go and sse2 tiers run the Go loops"
// rests on for Render: rasterLanes is the only way into the assembly,
// and it opens under avx2 and nothing else.
func TestRasterLanesGate(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		if got, want := rasterLanes(), vec.KernelTier() == vec.TierAVX2; got != want {
			t.Errorf("rasterLanes() = %v under %v", got, vec.KernelTier())
		}
	})
}

// TestRenderMatchesReference: every digit, several sizes, under every
// tier — 9 leaves a cached Box–Muller variate behind; 9, 11, 12 and 70
// leave column tails of every length mod 4 in the lanes, 33 a second
// column block of one column — without noise, with the default noise,
// with noise 1 (heavy clamping at both ends) and with noise 5e-324,
// whose products underflow to ±0 and the smallest subnormals. The
// images agree bit for bit and both generators end in the same state,
// observed through the next normal and the next raw words.
func TestRenderMatchesReference(t *testing.T) {
	for _, size := range []int{8, 9, 11, 12, 16, 28, 33, 70} {
		// A hundred instances of each digit at the sizes up to 28×28;
		// at 33 and 70 as many pixels as thirty instances at 28×28.
		instances := 100
		if size > 28 {
			instances = 30 * 28 * 28 / (size * size)
		}
		if testing.Short() {
			instances = max(1, instances/10)
		}
		for _, noise := range []float64{0, 0.05, 1, 5e-324} {
			t.Run(fmt.Sprintf("size=%d/noise=%g", size, noise), func(t *testing.T) {
				forEachTier(t, func(t *testing.T) {
					renderMatchesReference(t, size, noise, instances)
				})
			})
		}
	}
}

func renderMatchesReference(t *testing.T, size int, noise float64, instances int) {
	m, err := NewSyntheticMNIST(size, noise)
	if err != nil {
		t.Fatal(err)
	}
	got, want := make([]float64, m.Dim()), make([]float64, m.Dim())
	rngGot, rngWant := vec.NewRNG(uint64(size)), vec.NewRNG(uint64(size))
	for k := 0; k < instances; k++ {
		for digit := 0; digit < 10; digit++ {
			m.Render(rngGot, digit, got)
			renderReference(m, rngWant, digit, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("instance %d digit %d pixel %d: %x, reference %x",
						k, digit, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			if g, w := rngGot.NormFloat64(), rngWant.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("instance %d digit %d: next normal %v, reference %v", k, digit, g, w)
			}
			for j := 0; j < 4; j++ {
				if g, w := rngGot.Uint64(), rngWant.Uint64(); g != w {
					t.Fatalf("instance %d digit %d: RNG word %d is %x, reference %x", k, digit, j, g, w)
				}
			}
		}
	}
}
