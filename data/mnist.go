package data

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// SyntheticMNIST is the repository's stand-in for the MNIST digit task
// of the paper's image experiments: a procedural generator that renders
// the ten digits as anti-aliased stroke drawings on a Size×Size grid
// with randomized translation, scale, rotation, stroke thickness and
// pixel noise. Each class therefore has genuine intra-class variance
// and inter-class structure — an MLP improves steadily over SGD rounds
// and collapses visibly under Byzantine mis-aggregation, which is all
// the paper's Figures 4–7 require of the workload (see the workload
// substitution note in EXPERIMENTS.md).
//
// Construct with NewSyntheticMNIST.
type SyntheticMNIST struct {
	size    int
	noise   float64
	classes int
	// centres[i] is the coordinate of pixel row/column i's centre in
	// the unit square.
	centres []float64
}

// NewSyntheticMNIST returns a generator of size×size digit images with
// the given per-pixel Gaussian noise (0.05 is a good default). The
// target is a 10-way one-hot vector.
func NewSyntheticMNIST(size int, noise float64) (*SyntheticMNIST, error) {
	if size < 8 {
		return nil, fmt.Errorf("size %d too small (min 8): %w", size, ErrConfig)
	}
	if !(noise >= 0 && noise <= 1) {
		return nil, fmt.Errorf("noise %g outside [0, 1]: %w", noise, ErrConfig)
	}
	centres := make([]float64, size)
	for i := range centres {
		centres[i] = (float64(i) + 0.5) / float64(size)
	}
	return &SyntheticMNIST{size: size, noise: noise, classes: 10, centres: centres}, nil
}

// Dim implements Dataset.
func (m *SyntheticMNIST) Dim() int { return m.size * m.size }

// OutDim implements Dataset.
func (m *SyntheticMNIST) OutDim() int { return m.classes }

// Size returns the image side length.
func (m *SyntheticMNIST) Size() int { return m.size }

// colBlock is how many pixel columns pass 1 of Render handles at a time.
const colBlock = 32

// segment is a stroke in the unit square (y grows downward).
type segment struct {
	x1, y1, x2, y2 float64
}

// digitStrokes defines each digit as a polyline skeleton in [0,1]².
// The shapes are schematic rather than calligraphic: what matters is
// that the ten classes are mutually distinguishable and internally
// variable once jittered.
var digitStrokes = [10][]segment{
	// 0: octagonal ring.
	{
		{0.50, 0.10, 0.70, 0.25}, {0.70, 0.25, 0.72, 0.50}, {0.72, 0.50, 0.70, 0.75},
		{0.70, 0.75, 0.50, 0.90}, {0.50, 0.90, 0.30, 0.75}, {0.30, 0.75, 0.28, 0.50},
		{0.28, 0.50, 0.30, 0.25}, {0.30, 0.25, 0.50, 0.10},
	},
	// 1: flag + vertical bar + base.
	{
		{0.35, 0.28, 0.52, 0.10}, {0.52, 0.10, 0.52, 0.88}, {0.38, 0.88, 0.66, 0.88},
	},
	// 2: top curve, diagonal, bottom bar.
	{
		{0.30, 0.28, 0.42, 0.13}, {0.42, 0.13, 0.62, 0.13}, {0.62, 0.13, 0.70, 0.30},
		{0.70, 0.30, 0.32, 0.85}, {0.32, 0.85, 0.72, 0.85},
	},
	// 3: double bump on the right.
	{
		{0.30, 0.15, 0.62, 0.14}, {0.62, 0.14, 0.70, 0.30}, {0.70, 0.30, 0.48, 0.48},
		{0.48, 0.48, 0.70, 0.64}, {0.70, 0.64, 0.62, 0.84}, {0.62, 0.84, 0.30, 0.85},
	},
	// 4: diagonal, crossbar, vertical.
	{
		{0.62, 0.10, 0.28, 0.60}, {0.28, 0.60, 0.76, 0.60}, {0.62, 0.10, 0.62, 0.90},
	},
	// 5: top bar, left drop, belly.
	{
		{0.70, 0.13, 0.34, 0.13}, {0.34, 0.13, 0.32, 0.45}, {0.32, 0.45, 0.60, 0.45},
		{0.60, 0.45, 0.70, 0.62}, {0.70, 0.62, 0.58, 0.85}, {0.58, 0.85, 0.30, 0.82},
	},
	// 6: descending hook with lower loop.
	{
		{0.62, 0.12, 0.40, 0.32}, {0.40, 0.32, 0.31, 0.60}, {0.31, 0.60, 0.40, 0.84},
		{0.40, 0.84, 0.62, 0.84}, {0.62, 0.84, 0.68, 0.64}, {0.68, 0.64, 0.52, 0.54},
		{0.52, 0.54, 0.33, 0.62},
	},
	// 7: top bar and steep diagonal.
	{
		{0.28, 0.14, 0.72, 0.14}, {0.72, 0.14, 0.44, 0.88},
	},
	// 8: stacked diamonds.
	{
		{0.50, 0.10, 0.34, 0.29}, {0.34, 0.29, 0.50, 0.47}, {0.50, 0.47, 0.66, 0.29},
		{0.66, 0.29, 0.50, 0.10}, {0.50, 0.47, 0.31, 0.68}, {0.31, 0.68, 0.50, 0.90},
		{0.50, 0.90, 0.69, 0.68}, {0.69, 0.68, 0.50, 0.47},
	},
	// 9: upper loop with tail.
	{
		{0.66, 0.34, 0.58, 0.15}, {0.58, 0.15, 0.38, 0.16}, {0.38, 0.16, 0.31, 0.34},
		{0.31, 0.34, 0.40, 0.50}, {0.40, 0.50, 0.62, 0.48}, {0.62, 0.48, 0.66, 0.34},
		{0.66, 0.34, 0.60, 0.88},
	},
}

// Sample implements Dataset: it renders a uniformly chosen digit.
func (m *SyntheticMNIST) Sample(rng *vec.RNG, x, y []float64) {
	digit := rng.Intn(m.classes)
	m.Render(rng, digit, x)
	for i := range y {
		y[i] = 0
	}
	y[digit] = 1
}

// Render draws one randomized instance of the given digit into img
// (len Size²), overwriting it. Pixels are in [0, 1].
//
// The RNG stream is part of the result: five geometry draws, then one
// NormFloat64 per pixel in raster order when noise > 0.
func (m *SyntheticMNIST) Render(rng *vec.RNG, digit int, img []float64) {
	if digit < 0 || digit >= m.classes {
		panic(fmt.Sprintf("data: digit %d out of range", digit))
	}
	if len(img) != m.Dim() {
		panic(fmt.Sprintf("data: image buffer %d, want %d", len(img), m.Dim()))
	}
	// Random geometric jitter.
	dx := 0.12 * (rng.Float64() - 0.5)
	dy := 0.12 * (rng.Float64() - 0.5)
	scale := 0.85 + 0.3*rng.Float64()
	theta := 0.24 * (rng.Float64() - 0.5)
	sin, cos := math.Sin(theta), math.Cos(theta)
	thickness := 0.035 + 0.03*rng.Float64()
	soft := 0.5 * thickness

	// Pass 1: img holds the squared distance from each pixel centre to
	// the nearest stroke, one stroke at a time so that whatever depends
	// on the stroke alone, on the stroke and the column, or on the
	// stroke and the row is computed once. The closest point of a
	// stroke to p is p1 + t·v with t = ⟨p − p1, v⟩/|v|² clamped to
	// [0, 1]. The quotient is only formed where the projection falls
	// strictly inside the stroke: a numerator ≤ 0 clamps to t = 0 and
	// one ≥ |v|² to t = 1 however the division rounds, and p1 + 0·v and
	// p1 + 1·v are the two ends (the latter as the sum p1 + v, which is
	// not bit for bit the stroke's other end point).
	//
	// Under TierAVX2 the rows of a stroke run on strokeLanes instead,
	// four columns to a vector.
	vec.Fill(img, math.Inf(1))
	lanes := rasterLanes()
	var wxvx, wx2, ex2 [colBlock]float64
	for c0 := 0; c0 < m.size; c0 += colBlock {
		cols := m.centres[c0:min(c0+colBlock, m.size)]
		for _, s := range digitStrokes[digit] {
			x1 := transformX(s.x1, s.y1, scale, sin, cos) + dx
			y1 := transformY(s.x1, s.y1, scale, sin, cos) + dy
			x2 := transformX(s.x2, s.y2, scale, sin, cos) + dx
			y2 := transformY(s.x2, s.y2, scale, sin, cos) + dy
			vx, vy := x2-x1, y2-y1
			len2 := vx*vx + vy*vy
			ex, ey := x1+vx, y1+vy
			for j, cx := range cols {
				wx := cx - x1
				wxvx[j], wx2[j] = wx*vx, wx*wx
				ex2[j] = (cx - ex) * (cx - ex)
			}
			if lanes {
				strokeLanes(img[c0:], m.size, m.centres, cols, &wxvx, &wx2, &ex2, &[6]float64{x1, y1, vx, vy, len2, ey})
				continue
			}
			for py, cy := range m.centres {
				row := img[py*m.size+c0:]
				wy := cy - y1
				wyvy, wy2 := wy*vy, wy*wy
				ey2 := (cy - ey) * (cy - ey)
				for j, cx := range cols {
					var d2 float64
					switch num := wxvx[j] + wyvy; {
					case num <= 0:
						d2 = wx2[j] + wy2
					case num >= len2:
						d2 = ex2[j] + ey2
					default:
						t := num / len2
						qx := cx - (x1 + t*vx)
						qy := cy - (y1 + t*vy)
						d2 = qx*qx + qy*qy
					}
					if d2 < row[j] {
						row[j] = d2
					}
				}
			}
		}
	}

	// Pass 2: distance to intensity. Correctly rounded sqrt is monotone,
	// so the root of the smallest square is the smallest root.
	for i, d2 := range img {
		d := math.Sqrt(d2)
		if d <= thickness {
			img[i] = 1
		} else {
			t := (d - thickness) / soft
			img[i] = math.Exp(-t * t)
		}
	}

	// Pass 3: pixel noise, in raster order, drawn by FillNormal a chunk
	// at a time — one NormFloat64 per pixel, the same draws in the same
	// order. The chunk holds 0 + noise·z where noise·z is meant; the two
	// differ only in the sign of a zero, and the intensity it is added to
	// is never −0, so the sum is the same. Nor is the sum ever −0, the
	// one input on which min(max(x, 0), 1) and renderReference's clamp
	// `if x < 0 { x = 0 } else if x > 1 { x = 1 }` part.
	if m.noise > 0 {
		var noise [64]float64
		for px := img; len(px) > 0; {
			z := noise[:min(len(px), len(noise))]
			rng.FillNormal(z, 0, m.noise)
			for i, nz := range z {
				px[i] = min(max(px[i]+nz, 0), 1)
			}
			px = px[len(z):]
		}
	}
}

// transformX/transformY rotate about the glyph center (0.5, 0.5) and
// scale.
func transformX(x, y, scale, sin, cos float64) float64 {
	rx, ry := x-0.5, y-0.5
	return 0.5 + scale*(rx*cos-ry*sin)
}

func transformY(x, y, scale, sin, cos float64) float64 {
	rx, ry := x-0.5, y-0.5
	return 0.5 + scale*(rx*sin+ry*cos)
}
