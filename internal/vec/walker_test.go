package vec

import (
	"fmt"
	"math"
	"testing"
)

// specMatrix is the norms and cells the spec (spec_test.go) defines over
// a set of Gram-kernel vectors: what every build, rebuild and update of
// a DistanceMatrix over them must hold, bit for bit, under every tier.
type specMatrix struct{ nrm, d []float64 }

func newSpecMatrix(vs [][]float64) specMatrix {
	n := len(vs)
	m := specMatrix{make([]float64, n), make([]float64, n*n)}
	for i, v := range vs {
		m.nrm[i] = specNorm(v)
	}
	for i := range vs {
		for j := i + 1; j < n; j++ {
			c := specAssemble(m.nrm[i], m.nrm[j], specDot(vs[i], vs[j]))
			m.d[i*n+j], m.d[j*n+i] = c, c
		}
	}
	return m
}

// sameWalkerBits fails unless got's cells and norms equal the spec's bit
// for bit (NaN payloads included: a non-finite row must poison the same
// cells the same way).
func sameWalkerBits(t *testing.T, what string, got *DistanceMatrix, want specMatrix) {
	t.Helper()
	for i, w := range want.nrm {
		if g := got.nrm[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: norm %d = %v (%#x), spec %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	for c, w := range want.d {
		if g := got.d[c]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: cell (%d,%d) = %v (%#x), spec %v (%#x)", what, c/got.n, c%got.n, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// walkerSpecials are the values FuzzWalkerCells plants: signed zeros
// (a row of −0 has norm +0 in the walker and the spec alike),
// infinities and NaN.
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

// walkerScript is one scenario the walker is run through — a build and
// three update rounds, each followed by a rebuild — with the spec's
// cells and norms over the vector set of every step, so that one
// evaluation of the spec serves every (tier, panel width,
// worker count) the walker is replayed under.
type walkerScript struct {
	vs    [][]float64
	steps [3]struct {
		rows []int       // the round's change-set, duplicate-free
		cur  [][]float64 // the vector set after the round
	}
	want [4]specMatrix // over vs, then over each step's cur
}

// newWalkerScript draws the three rounds over vs and evaluates the spec.
// Changed rows take fresh walkerVectors draws (special shifted by the
// step, so special rows come and go); odd steps list their set in
// descending order: the walker may not depend on the order a change-set
// is listed in.
func newWalkerScript(rng *RNG, vs [][]float64, special uint16, changed [3][]int) *walkerScript {
	n, d := len(vs), len(vs[0])
	s := &walkerScript{vs: vs}
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
		s.steps[step].rows, s.steps[step].cur = rows, append([][]float64(nil), cur...)
	}
	s.want = [4]specMatrix{newSpecMatrix(vs), newSpecMatrix(s.steps[0].cur),
		newSpecMatrix(s.steps[1].cur), newSpecMatrix(s.steps[2].cur)}
	return s
}

// replay runs the walker through the script once per available tier,
// comparing every cell and norm with the spec by bits at each step.
// panel > 0 forces the column-panel width (0 keeps panelWidth's). The
// build runs on exactly workers strided shares (buildOn); serially
// (workers ≤ 1) each round then replays UpdateRows and an in-place
// Rebuild, both of which must land on the spec over the round's vector
// set. Updates never fan out and a rebuild is a build over cleared
// cells, so workers > 1 replays only the build.
func (s *walkerScript) replay(t *testing.T, panel, workers int) {
	t.Helper()
	underEachTier(t, func(tier Tier) {
		what := func(step string) string {
			return fmt.Sprintf("%v n=%d d=%d panel=%d workers=%d: %s", tier, len(s.vs), len(s.vs[0]), panel, workers, step)
		}
		m := newShell(s.vs)
		if panel > 0 {
			m.panel = panel
		}
		m.buildOn(workers)
		sameWalkerBits(t, what("build"), m, s.want[0])
		if workers > 1 {
			return
		}
		for k, st := range s.steps {
			m.UpdateRows(st.rows, st.cur)
			sameWalkerBits(t, what("update"), m, s.want[k+1])
			m.Rebuild()
			sameWalkerBits(t, what("rebuild in place"), m, s.want[k+1])
		}
	})
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

// TestWalkerMatchesSpec runs the spec comparison over every tile-edge n
// (1…13: no tile, exactly one, clamped last tiles of 1–3 columns, odd
// trailing row) at one-, two- and three-block depths, then over special
// rows and over near-duplicate rows, where the Gram identity cancels to
// rounding noise on either side of zero and the clamp decides the cell.
func TestWalkerMatchesSpec(t *testing.T) {
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

	dup := walkerVectors(rng, 9, 1000, 0)
	for i := 1; i < len(dup); i++ {
		dup[i] = Clone(dup[0])
		Axpy(1e-9, rng.NewNormal(1000, 0, 1), dup[i])
	}
	script := newWalkerScript(rng, dup, 0, [3][]int{{0}, {1, 2}, {8}})
	script.replay(t, 0, 1)
	clamped := 0
	nrm := script.want[0].nrm
	for i := range dup {
		for j := range i {
			if nrm[i]+nrm[j]-2*specDot(dup[i], dup[j]) < 0 {
				clamped++
			}
		}
	}
	if clamped == 0 {
		t.Error("no near-duplicate pair cancels below zero; the clamp case is vacuous")
	}
}

// TestPanelSeamUnobservable holds the walker to the spec across
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
	underEachTier(t, func(tier Tier) {
		want := script.want
		for _, workers := range []int{2, 8} {
			m := newShell(vs).buildOn(workers)
			sameWalkerBits(t, "fanned-out build", m, want[0])
			m.UpdateRows(stridedRows(n, 0, 1), script.steps[2].cur)
			sameWalkerBits(t, "full-change update", m, want[3])
			clear(m.d)
			m.buildOn(workers)
			sameWalkerBits(t, "fanned-out rebuild", m, want[3])
		}
	})
}

// FuzzWalkerCells derives the shape (n ≤ 13, d on either side of one
// and two gramBlocks), the special rows, three change-sets and the
// column-panel width (0: panelWidth's own; 1…15, multiples of the tile
// width or not) from the fuzz input and holds the production walker —
// full build, in-place rebuild, updates — to the spec bit for bit, under
// every available tier.
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
