package vec

import (
	"fmt"
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

// walkerScript is one scenario both walkers are run through — a build
// and three update rounds, each followed by a rebuild — with the
// reference walker's cells and norms after every step, so that one run
// of the reference serves every (panel width, worker count) the
// production walker is replayed under.
type walkerScript struct {
	vs    [][]float64
	built *refMatrix
	steps [3]struct {
		rows    []int       // the round's change-set, duplicate-free
		cur     [][]float64 // the vector set after the round
		updated *refMatrix  // the reference after its incremental update
		rebuilt *refMatrix  // the reference built afresh over cur
	}
}

// newWalkerScript runs the reference over vs and the three change-sets.
// Changed rows take fresh walkerVectors draws (special shifted by the
// step, so special rows come and go); odd steps list their set in
// descending order: the walker may not depend on the order a change-set
// is listed in.
func newWalkerScript(rng *RNG, vs [][]float64, special uint16, changed [3][]int) *walkerScript {
	n, d := len(vs), len(vs[0])
	s := &walkerScript{vs: vs, built: refBuild(vs)}
	ref := refBuild(vs)
	cur := append([][]float64(nil), vs...)
	for step, rows := range changed {
		rows = append([]int(nil), rows...)
		next := walkerVectors(rng, n, d, special>>step)
		for _, i := range rows {
			cur[i] = next[i]
		}
		if step%2 == 1 {
			for a, b := 0, len(rows)-1; a < b; a, b = a+1, b-1 {
				rows[a], rows[b] = rows[b], rows[a]
			}
		}
		ref.updateRows(rows, cur)
		st := &s.steps[step]
		st.rows, st.cur = rows, append([][]float64(nil), cur...)
		st.updated = &refMatrix{n: n, nrm: append([]float64(nil), ref.nrm...), d: append([]float64(nil), ref.d...)}
		st.rebuilt = refBuild(cur)
	}
	return s
}

// replay runs the production walker through the script, comparing every
// cell and norm with the reference by bits at each step. panel > 0
// forces the column-panel width (0 keeps panelWidth's). The build runs
// on exactly workers strided shares (buildOn); serially (workers ≤ 1)
// each round then replays UpdateRows and an in-place Rebuild. Updates
// never fan out and a rebuild is a build over cleared cells, so
// workers > 1 replays only the build.
func (s *walkerScript) replay(t *testing.T, panel, workers int) {
	t.Helper()
	what := func(step string) string {
		return fmt.Sprintf("n=%d d=%d panel=%d workers=%d: %s", len(s.vs), len(s.vs[0]), panel, workers, step)
	}
	m := newShell(s.vs)
	if panel > 0 {
		m.panel = panel
	}
	m.buildOn(workers)
	sameWalkerBits(t, what("build"), m, s.built)
	if workers > 1 {
		return
	}
	for _, st := range s.steps {
		m.UpdateRows(st.rows, st.cur)
		sameWalkerBits(t, what("update"), m, st.updated)
		m.Rebuild()
		sameWalkerBits(t, what("rebuild in place"), m, st.rebuilt)
	}
}

// maskRows lists the rows < n whose bit is set in mask, ascending.
func maskRows(mask uint16, n int) []int {
	var rows []int
	for i := 0; i < min(n, 16); i++ {
		if mask>>i&1 == 1 {
			rows = append(rows, i)
		}
	}
	return rows
}

// TestWalkerMatchesReference runs the reference comparison over every
// tile-edge n (1…13: no tile, exactly one, clamped last tiles of 1–3
// columns, odd trailing row) at one-, two- and three-block depths.
func TestWalkerMatchesReference(t *testing.T) {
	rng := NewRNG(2024)
	for n := 1; n <= 13; n++ {
		for _, d := range []int{17, 100, gramBlock - 1, gramBlock, gramBlock + 1, 2*gramBlock + 5} {
			vs := walkerVectors(rng, n, d, 0)
			changed := [3][]int{{n / 2}, maskRows(0b1010101010101, n), maskRows(0b0011001100110, n)}
			newWalkerScript(rng, vs, 0, changed).replay(t, 0, 1)
		}
	}
	vs := walkerVectors(rng, 9, gramBlock+3, 0b100100100)
	newWalkerScript(rng, vs, 0b010010010, [3][]int{{0, 1, 2}, {7, 8}, {0}}).replay(t, 0, 1)
}

// TestPanelSeamUnobservable holds the walker to the reference across
// column-panel seams, which no production shape small enough to test
// quickly would cross: n odd, ≢ 0 (mod 4) and with a trailing odd row,
// d on both sides of one and two k-blocks, the panel forced to one,
// two and three tiles, to n − 1 (a last panel of one column, and a
// width that is no multiple of the tile's), to n and beyond (one
// panel), serial and on 2, 3 and 7 strided shares. One script per shape:
// a single row, every other row (changed–changed pairs straddling every
// seam), and adjacent pairs.
func TestPanelSeamUnobservable(t *testing.T) {
	rng := NewRNG(2025)
	for _, n := range []int{5, 13, 33, 65, 70} {
		var alternate, pairs []int
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				alternate = append(alternate, i)
			}
			if i%4 == 1 || i%4 == 2 {
				pairs = append(pairs, i)
			}
		}
		for _, d := range []int{17, gramBlock - 1, gramBlock + 1, 2*gramBlock + 5} {
			script := newWalkerScript(rng, walkerVectors(rng, n, d, 0), 0, [3][]int{{n / 2}, alternate, pairs})
			for _, panel := range []int{4, 8, 12, n - 1, n, n + 3} {
				for _, workers := range []int{1, 2, 3, 7} {
					script.replay(t, panel, workers)
				}
			}
		}
	}
}

// TestPanelBudgetCrossed is the un-forced case: n = 70 vectors of one
// full k-block each are 1.1 MB of slices, so panelWidth itself cuts the
// columns in two (64 + 6), and the shape is large enough for build's
// own share count to exceed one (so the serial script's Rebuild fans
// out wherever GOMAXPROCS allows).
func TestPanelBudgetCrossed(t *testing.T) {
	const n, d = 70, gramBlock
	if w := panelWidth(n, d); w >= n || w%4 != 0 {
		t.Fatalf("panelWidth(%d, %d) = %d: want a multiple of 4 below n", n, d, w)
	}
	for _, shape := range []struct{ n, d int }{{40, 10000}, {20, 12826}, {9, 6}, {100, 1000}} {
		if w := panelWidth(shape.n, shape.d); w != shape.n {
			t.Errorf("panelWidth(%d, %d) = %d: the tracked shape no longer fits one panel", shape.n, shape.d, w)
		}
	}
	rng := NewRNG(2026)
	vs := walkerVectors(rng, n, d, 0)
	script := newWalkerScript(rng, vs, 0, [3][]int{{63, 64}, {0, 69}, {5, 62, 65, 66}})
	for _, workers := range []int{1, 3} {
		script.replay(t, 0, workers)
	}
	for _, workers := range []int{2, 8} {
		m := newShell(vs).buildOn(workers)
		sameWalkerBits(t, "fanned-out build", m, script.built)
		last := script.steps[len(script.steps)-1]
		m.UpdateRows(stridedRows(n, 0, 1), last.cur)
		sameWalkerBits(t, "full-change update", m, last.rebuilt)
		clear(m.d)
		m.buildOn(workers)
		sameWalkerBits(t, "fanned-out rebuild", m, last.rebuilt)
	}
}

// FuzzWalkerCells derives the shape (n ≤ 13, d on either side of one
// and two gramBlocks), the special rows, three change-sets and the
// column-panel width (0: panelWidth's own; 1…15, multiples of the tile
// width or not) from the fuzz input and holds the production walker —
// full build, in-place rebuild, updates — to the reference walker bit
// for bit.
func FuzzWalkerCells(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint16(20), uint16(0), uint16(0b101), uint16(0b1111111111111), uint16(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint16(2047), uint16(1), uint16(1), uint16(1), uint16(1), uint8(1))
	f.Add(uint64(3), uint8(6), uint16(2049), uint16(0b1001001), uint16(0b0110), uint16(0b1000001), uint16(0b11), uint8(4))
	f.Add(uint64(4), uint8(4), uint16(4099), uint16(0xffff), uint16(0b10000), uint16(0b01111), uint16(0b10101), uint8(3))
	f.Add(uint64(5), uint8(12), uint16(2050), uint16(0b1000100010001), uint16(0b110011), uint16(0b1111111111111), uint16(0b1000000000000), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, n8 uint8, d16, special, c0, c1, c2 uint16, panel uint8) {
		n := int(n8%13) + 1
		// Three bands around the block seams: 17…, gramBlock−8…, 2·gramBlock−8….
		d := []int{naiveDimMax + 1, gramBlock - 8, 2*gramBlock - 8}[d16%3] + int(d16/3%64)
		rng := NewRNG(seed)
		changed := [3][]int{maskRows(c0, n), maskRows(c1, n), maskRows(c2, n)}
		newWalkerScript(rng, walkerVectors(rng, n, d, special), special, changed).replay(t, int(panel%16), 1+int(panel>>4)%3)
	})
}
