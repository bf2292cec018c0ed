package vec

import (
	"math"
	"testing"
)

// refMatrix is the distance build as it stood before the whole-tile
// walker, kept verbatim (storage aside: it reads the vectors through
// vs instead of a private copy): a separate norm pass through dotPair,
// the pair's cross cell and the 1–3 leftover columns of every row on
// dotPairBlock, full tiles only on dot24Block / dot4Block. It defines
// the cells and norms the production walker must reproduce bit for bit
// on every tier.
type refMatrix struct {
	n, dim int
	vs     [][]float64
	nrm    []float64
	d      []float64
}

func refBuild(vectors [][]float64) *refMatrix {
	n := len(vectors)
	m := &refMatrix{n: n, dim: len(vectors[0]), vs: append([][]float64(nil), vectors...),
		nrm: make([]float64, n), d: make([]float64, n*n)}
	for i, v := range vectors {
		m.nrm[i] = dotPair(v, v)
	}
	m.fill(stridedRows(n, 0, 1), true)
	return m
}

func (m *refMatrix) updateRows(rows []int, vectors [][]float64) {
	for _, i := range rows {
		m.vs[i] = vectors[i]
		m.nrm[i] = dotPair(vectors[i], vectors[i])
	}
	for _, i := range rows {
		clear(m.d[i*m.n : (i+1)*m.n])
	}
	m.fill(rows, false)
}

func (m *refMatrix) fill(rows []int, upper bool) {
	n, d := m.n, m.dim
	var t [8]float64
	for k0 := 0; k0 < d; k0 += gramBlock {
		k1 := min(k0+gramBlock, d)
		slice := func(i int) []float64 { return m.vs[i][k0:k1] }
		for k := 0; k < len(rows); k += 2 {
			r0 := rows[k]
			v0, row0 := slice(r0), m.d[r0*n:(r0+1)*n]
			j := 0
			if k+1 == len(rows) {
				if upper {
					j = r0 + 1
				}
				for ; j+4 <= n; j += 4 {
					p0, p1, p2, p3 := dot4Block(v0, slice(j), slice(j+1), slice(j+2), slice(j+3))
					row0[j] += p0
					row0[j+1] += p1
					row0[j+2] += p2
					row0[j+3] += p3
				}
				for ; j < n; j++ {
					row0[j] += dotPairBlock(v0, slice(j))
				}
				break
			}
			r1 := rows[k+1]
			v1, row1 := slice(r1), m.d[r1*n:(r1+1)*n]
			if upper {
				row0[r1] += dotPairBlock(v0, v1)
				j = r1 + 1
			}
			for ; j+4 <= n; j += 4 {
				dot24Block(v0, v1, slice(j), slice(j+1), slice(j+2), slice(j+3), &t)
				row0[j] += t[0]
				row0[j+1] += t[1]
				row0[j+2] += t[2]
				row0[j+3] += t[3]
				row1[j] += t[4]
				row1[j+1] += t[5]
				row1[j+2] += t[6]
				row1[j+3] += t[7]
			}
			for ; j < n; j++ {
				vj := slice(j)
				row0[j] += dotPairBlock(v0, vj)
				row1[j] += dotPairBlock(v1, vj)
			}
		}
	}
	if upper {
		for _, i := range rows {
			m.assembleRow(i, i+1, true)
		}
		return
	}
	for _, i := range rows {
		m.assembleRow(i, 0, false)
	}
	for _, i := range rows {
		for j := 0; j < n; j++ {
			m.d[j*n+i] = m.d[i*n+j]
		}
	}
}

func (m *refMatrix) assembleRow(i, from int, mirror bool) {
	row := m.d[i*m.n : (i+1)*m.n]
	ni := m.nrm[i]
	for j := from; j < m.n; j++ {
		if j == i {
			row[i] = 0
			continue
		}
		v := ni + m.nrm[j] - 2*row[j]
		if v < 0 {
			v = 0
		}
		row[j] = v
		if mirror {
			m.d[j*m.n+i] = v
		}
	}
}

// sameWalkerBits fails unless got's cells and norms equal ref's bit for bit
// (NaN payloads included: a non-finite row must poison the same cells
// the same way).
func sameWalkerBits(t *testing.T, what string, got *DistanceMatrix, ref *refMatrix) {
	t.Helper()
	for i, w := range ref.nrm {
		if g := got.nrm[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: norm %d = %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	for c, w := range ref.d {
		if g := got.d[c]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: cell (%d,%d) = %v (%#x), reference %v (%#x)", what, c/ref.n, c%ref.n, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// walkerSpecials are the values FuzzWalkerCells plants: signed zeros
// (a row of −0 has norm +0 on both walkers), infinities and NaN.
var walkerSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// walkerVectors draws n Gram-kernel vectors; bit r of special turns row
// r (mod n) into a special row: all −0, or normal with one planted
// special value.
func walkerVectors(rng *RNG, n, d int, special uint16) [][]float64 {
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 3)
		if special>>i&1 == 0 {
			continue
		}
		if s := walkerSpecials[rng.Intn(len(walkerSpecials))]; s == 0 && math.Signbit(s) {
			Fill(vs[i], s)
		} else {
			vs[i][rng.Intn(d)] = s
		}
	}
	return vs
}

// checkWalkerCells builds over vs on the production walker and on the
// reference, then applies the same three update rounds to both —
// changed names the rows of each round as a bitmask, so the sets are
// duplicate-free and changed–changed pairs occur — and rebuilds in
// place after each, comparing every cell and norm by bits at each step.
func checkWalkerCells(t *testing.T, rng *RNG, vs [][]float64, special uint16, changed [3]uint16) {
	t.Helper()
	n, d := len(vs), len(vs[0])
	ref := refBuild(vs)
	m := NewDistanceMatrix(vs)
	sameWalkerBits(t, "build", m, ref)
	cur := append([][]float64(nil), vs...)
	for step, mask := range changed {
		var rows []int
		next := walkerVectors(rng, n, d, special>>step)
		for i := range cur {
			if mask>>i&1 == 1 {
				rows = append(rows, i)
				cur[i] = next[i]
			}
		}
		// Descending on odd steps: the walker may not depend on the
		// order a change-set is listed in.
		if step%2 == 1 {
			for a, b := 0, len(rows)-1; a < b; a, b = a+1, b-1 {
				rows[a], rows[b] = rows[b], rows[a]
			}
		}
		m.UpdateRows(rows, cur)
		ref.updateRows(rows, cur)
		sameWalkerBits(t, "update", m, ref)
		m.Rebuild(1)
		sameWalkerBits(t, "rebuild in place", m, refBuild(cur))
	}
}

// TestWalkerMatchesReference runs the reference comparison over every
// tile-edge n (1…13: no tile, exactly one, clamped last tiles of 1–3
// columns, odd trailing row) at one-, two- and three-block depths.
func TestWalkerMatchesReference(t *testing.T) {
	rng := NewRNG(2024)
	for n := 1; n <= 13; n++ {
		for _, d := range []int{17, 100, gramBlock - 1, gramBlock, gramBlock + 1, 2*gramBlock + 5} {
			vs := walkerVectors(rng, n, d, 0)
			checkWalkerCells(t, rng, vs, 0, [3]uint16{1 << (n / 2), 0b1010101010101, 0b0011001100110})
		}
	}
	vs := walkerVectors(rng, 9, gramBlock+3, 0b100100100)
	checkWalkerCells(t, rng, vs, 0b010010010, [3]uint16{0b111, 0b110000000, 0b1})
}

// FuzzWalkerCells derives the shape (n ≤ 13, d on either side of one
// and two gramBlocks), the special rows and three change-sets from the
// fuzz input and holds the production walker — full build, in-place
// rebuild, updates — to the reference walker bit for bit.
func FuzzWalkerCells(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint16(20), uint16(0), uint16(0b101), uint16(0b1111111111111), uint16(0))
	f.Add(uint64(2), uint8(0), uint16(2047), uint16(1), uint16(1), uint16(1), uint16(1))
	f.Add(uint64(3), uint8(6), uint16(2049), uint16(0b1001001), uint16(0b0110), uint16(0b1000001), uint16(0b11))
	f.Add(uint64(4), uint8(4), uint16(4099), uint16(0xffff), uint16(0b10000), uint16(0b01111), uint16(0b10101))
	f.Fuzz(func(t *testing.T, seed uint64, n8 uint8, d16, special, c0, c1, c2 uint16) {
		n := int(n8%13) + 1
		// Three bands around the block seams: 17…, gramBlock−8…, 2·gramBlock−8….
		d := []int{naiveDimMax + 1, gramBlock - 8, 2*gramBlock - 8}[d16%3] + int(d16/3%64)
		rng := NewRNG(seed)
		checkWalkerCells(t, rng, walkerVectors(rng, n, d, special), special, [3]uint16{c0, c1, c2})
	})
}
