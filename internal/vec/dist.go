package vec

import "math"

// DistanceMatrix holds the full symmetric matrix of pairwise squared
// Euclidean distances between n vectors, stored densely (n×n, row
// major). The diagonal is zero. It is the O(n²·d) object at the heart
// of Krum (Lemma 4.1): building it dominates the aggregation cost.
//
// Distances are assembled through the Gram trick
// ‖a−b‖² = ‖a‖² + ‖b‖² − 2·⟨a,b⟩ over a register-blocked inner-product
// kernel (see gram.go), with a clamp to zero against the small negative
// values floating-point cancellation can produce.
//
// OWNERSHIP: the matrix is a view over the vectors — it reads them in
// place and never copies one; only the cells and norms are its own. A
// build reads the vectors only while it runs, so a matrix built once
// and then read (one round's RoundContext) borrows them for that call
// alone. UpdateRow(s) and Rebuild re-read every row the matrix still
// holds: whoever keeps a matrix across rounds must keep those rows
// unmodified in between, which is what core.RoundCache's arena is for.
type DistanceMatrix struct {
	n    int
	dim  int
	gram bool        // Gram-trick kernel (large dim) vs exact subtract-square
	rows [][]float64 // the n vectors, borrowed (the header list is the matrix's)
	nrm  []float64   // n squared norms ‖v_i‖², taken from the staged diagonal
	d    []float64   // n*n squared distances, row major
	// panel is the walker's column-panel width (panelWidth; n when one
	// panel holds every column). Tests force it to cross panel seams at
	// small n; no result bit depends on it.
	panel int
	// madds is the multiply-adds of the last build or update
	// (MultiplyAdds).
	madds uint64
}

// naiveDimMax is the dimension at or below which NewDistanceMatrix
// keeps the subtract-square kernel: with only a handful of
// coordinates the O(n²·d) bill is trivial either way, and the direct
// formula is immune to the cancellation noise that can flip exact
// decimal ties (Krum's index tie-break is observable behavior). Above
// it, the blocked Gram kernel's throughput wins and the property
// suite bounds its error relative to the input magnitudes.
const naiveDimMax = 16

// NewDistanceMatrix computes all pairwise squared distances between the
// given vectors with the blocked Gram-trick kernel (dimensions above
// naiveDimMax; tiny dimensions keep the exact subtract-square loop).
// Cost: n·(n+1)/2 inner products of d multiply-adds each (the pairs
// and the norms), i.e. Θ(n²·d), in n² + O(n) floats: the vectors are
// borrowed, not copied (see DistanceMatrix). The build is the tile
// walker (fill) over "all rows, upper triangle", on as many goroutines
// as the shape is worth on this host (shares) — a choice that moves no
// bit of the result.
func NewDistanceMatrix(vectors [][]float64) *DistanceMatrix {
	return newShell(vectors).build()
}

// NewDistanceMatrixNaive computes the same matrix with the reference
// per-pair subtract-square loop (Dist2) at every dimension. It is the
// oracle the property tests pin the blocked kernel against and the
// baseline BenchmarkDistanceMatrix measures the blocked kernel's
// speedup over; production callers always want NewDistanceMatrix.
// Incremental updates on a naive matrix stay in the naive kernel.
func NewDistanceMatrixNaive(vectors [][]float64) *DistanceMatrix {
	m := newShell(vectors)
	m.gram = false
	return m.build()
}

// panelWidth returns the walker's column-panel width for n vectors of
// the given dimension: all n columns when their k-block slices fit
// panelBytes, else the widest multiple of 4 (the tile width) that does
// — never fewer than 64, a full gramBlock slice being 16 KB.
func panelWidth(n, dim int) int {
	return min(n, panelBytes/(8*min(max(dim, 1), gramBlock))&^3)
}

// newShell validates dimensions and allocates the zeroed cells and
// norms around a borrowed view of the vectors.
func newShell(vectors [][]float64) *DistanceMatrix {
	n := len(vectors)
	dim := 0
	if n > 0 {
		dim = len(vectors[0])
	}
	for _, v := range vectors {
		checkLen("NewDistanceMatrix", len(v), dim)
	}
	return &DistanceMatrix{
		n:     n,
		dim:   dim,
		gram:  dim > naiveDimMax,
		rows:  append([][]float64(nil), vectors...),
		nrm:   make([]float64, n),
		d:     make([]float64, n*n),
		panel: panelWidth(n, dim),
	}
}

// Rebuild recomputes every cell and norm in place from the rows the
// matrix holds: a full, counted build without the allocations, for the
// rows' owner.
func (m *DistanceMatrix) Rebuild() {
	clear(m.d)
	m.build()
}

// stridedRows returns worker w's share of a full build's row-set: the
// adjacent row pairs (2p, 2p+1) with p ≡ w (mod workers), in ascending
// order. (0, 1) is every row, 0…n−1. The pair at row u carries ~2·(n−u)
// upper-triangle dots, so striding balances the triangular load.
func stridedRows(n, w, workers int) []int {
	rows := make([]int, 0, (n+1)/workers+2)
	for u := 2 * w; u < n; u += 2 * workers {
		rows = append(rows, u)
		if u+1 < n {
			rows = append(rows, u+1)
		}
	}
	return rows
}

// fill is the one tile walker behind every distance the matrix ever
// computes, in its two phases: stage accumulates inner products into
// the rows' cells, assemble turns them into clamped distances (a
// fanned-out build, buildOn, puts a barrier between the two). It
// returns the multiply-adds the kernels did (MultiplyAdds).
func (m *DistanceMatrix) fill(rows []int, upper bool) uint64 {
	if !m.gram {
		return m.fillExact(rows, upper)
	}
	madds := m.stage(rows, upper)
	m.assemble(rows, upper)
	return madds
}

// MultiplyAdds returns the multiply-adds the distance kernels did in
// the matrix's last build, rebuild or update: the products the tiles
// delivered into cells, d each (a tail tile's clamped duplicate columns
// are not counted), or d per pair on the exact kernel. A full build on
// the Gram kernel delivers the upper triangle with its diagonal plus,
// for each full row pair, the one cell below it that the pair's first
// tile yields: (n(n+1)/2 + ⌊n/2⌋)·d, Lemma 4.1's Θ(n²·d). An update of
// c rows delivers c·n·d, and the exact kernel n(n−1)/2·d and c·(n−1)·d.
// The count depends on the shape and the rows alone, not on how many
// goroutines built the matrix nor on the panel width.
func (m *DistanceMatrix) MultiplyAdds() uint64 { return m.madds }

// stage walks k-block → column panel → row pair → tile, adding each
// k-block's tile results into the rows' cells, and then reads the rows'
// norms off the diagonal:
//
//   - rows is the row-set, consumed two rows at a time so the inner loop
//     runs the 2×4 tile (each streamed column slice feeds two rows); a
//     trailing odd row runs the 1×4 tile.
//   - upper selects the column range. A full build sets it and passes
//     adjacent row pairs (stridedRows): the pair (r0, r0+1) starts its
//     first tile AT column r0, so that tile yields the self products
//     ⟨v0,v0⟩ and ⟨v1,v1⟩ (the norms), the cross cell ⟨v0,v1⟩, and the
//     walk continues to the right. (The tile's ⟨v1,v0⟩ lands below the
//     diagonal in cell (r0+1, r0); assembly overwrites it with the
//     mirror of (r0, r0+1).) Row u then owns cells (u, j≥u) and the
//     mirrors (j>u, u), so disjoint row-sets write disjoint cells: the
//     fanned-out build is this walker over a partition of the rows,
//     sharing nothing but the buffer. An update clears it and passes the
//     changed rows: each row covers all n columns, so a changed–changed
//     pair is simply staged from both sides with the same canonical
//     value.
//   - the last tile of a panel clamps its column indices to the panel's
//     last column and keeps only the columns inside it (at the last
//     panel: the columns that exist), so every product comes from a
//     tile. Each tile column runs its pair's canonical lane order by
//     gram.go's contract, and a diagonal cell sums its k-blocks
//     in ascending k from +0: the blocked composition of ⟨v,v⟩ (the
//     tests' specNorm).
//
// The staged cells must be zero on entry (fresh from newShell, or
// cleared by Rebuild / recompute): each k-block of gramBlock
// coordinates adds its per-block tile results into them in ascending k,
// which is exactly the canonical blocked order of gram.go, so a cell's
// bits never depend on the row-set, the partition, the panel width, or
// the tile that happened to cover it.
//
// The two outer levels exist for locality alone. The k-block loop is
// outermost so that the slices the inner loops touch are at most
// gramBlock long; the panel loop bounds how many of them there are: the
// panel's slices (≤ panelBytes) stay L2-resident while every row pair
// streams its own two slices past them, so the pairs re-read the
// columns from L2 rather than from L3 or memory. Without it the
// residency held only while all n slices fit (640 KB at n = 40; 8 MB at
// n = 1000, where the same tile ran at two thirds of its n = 100 rate).
// A shape whose n slices fit the budget is one panel [0, n) — the
// pair-inside-k-block loop of every shape with n ≤ 64, or n ≤ 128 at
// d ≤ 1024 — and at d ≤ gramBlock the walk is a single block.
func (m *DistanceMatrix) stage(rows []int, upper bool) (madds uint64) {
	n, d := m.n, m.dim
	var t [8]float64
	for k0 := 0; k0 < d; k0 += gramBlock {
		k1 := min(k0+gramBlock, d)
		cells := 0
		for c0 := 0; c0 < n; c0 += m.panel {
			c1 := min(c0+m.panel, n)
			col := func(j int) []float64 { return m.rows[min(j, c1-1)][k0:k1] }
			for k := 0; k < len(rows); k += 2 {
				r0 := rows[k]
				v0, row0 := m.rows[r0][k0:k1], m.d[r0*n:(r0+1)*n]
				j := c0
				if upper {
					j = max(c0, r0)
				}
				if k+1 == len(rows) {
					for ; j < c1; j += 4 {
						t[0], t[1], t[2], t[3] = dot4Block(v0, col(j), col(j+1), col(j+2), col(j+3))
						for c := range min(4, c1-j) {
							row0[j+c] += t[c]
						}
						cells += min(4, c1-j)
					}
					break
				}
				r1 := rows[k+1]
				v1, row1 := m.rows[r1][k0:k1], m.d[r1*n:(r1+1)*n]
				for ; j < c1; j += 4 {
					dot24Block(v0, v1, col(j), col(j+1), col(j+2), col(j+3), &t)
					for c := range min(4, c1-j) {
						row0[j+c] += t[c]
						row1[j+c] += t[4+c]
					}
					cells += 2 * min(4, c1-j)
				}
			}
		}
		madds += uint64(cells * (k1 - k0))
	}
	for _, i := range rows {
		m.nrm[i] = m.d[i*n+i]
	}
	return madds
}

// assemble turns the rows' staged inner products into distances. It
// reads every norm, so all of stage must have finished first.
func (m *DistanceMatrix) assemble(rows []int, upper bool) {
	if upper {
		for _, i := range rows {
			m.assembleRow(i, i, true)
		}
		return
	}
	// Assemble without mirroring first: a changed row's column cells in
	// OTHER changed rows still hold staged raw dots, and both sides of a
	// changed–changed pair staged the same canonical value, so each row
	// assembles independently of the rest. Then mirror the finished
	// distances into every column (rewriting another changed row's
	// already-assembled cell installs the identical value).
	for _, i := range rows {
		m.assembleRow(i, 0, false)
	}
	for _, i := range rows {
		for j := 0; j < m.n; j++ {
			m.d[j*m.n+i] = m.d[i*m.n+j]
		}
	}
}

// fillExact is fill for matrices on the exact kernel (d ≤ naiveDimMax,
// and the naive oracle): the one subtract-square pair loop, shared by
// build and update, over the same row-set and column range.
func (m *DistanceMatrix) fillExact(rows []int, upper bool) uint64 {
	n, pairs := m.n, 0
	for _, i := range rows {
		vi := m.rows[i]
		j := 0
		if upper {
			j = i + 1
		}
		for ; j < n; j++ {
			dist := 0.0
			if j != i {
				dist = Dist2(vi, m.rows[j])
				pairs++
			}
			m.d[i*n+j] = dist
			m.d[j*n+i] = dist
		}
	}
	return uint64(pairs * m.dim)
}

// assembleRow turns the inner products staged in row i's cells [from,
// n) into clamped squared distances, mirroring each value into column i
// when mirror is set. The clamp guards against the small negative
// results cancellation produces when ⟨a,b⟩ ≈ (‖a‖²+‖b‖²)/2.
func (m *DistanceMatrix) assembleRow(i, from int, mirror bool) {
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

// UpdateRow makes v vector i and recomputes row and column i of the
// matrix in Θ(n·d) — the incremental alternative to a Θ(n²·d) rebuild
// when few vectors changed between rounds. The result is bit-identical
// to NewDistanceMatrix over the updated vector set: the recomputed
// pairs go through the same walker, hence the same canonical
// inner-product order, as a full build, and untouched cells are exactly
// the values a full build would recompute for unchanged vectors. Like
// a build, the update borrows v: every later update re-reads it.
func (m *DistanceMatrix) UpdateRow(i int, v []float64) {
	m.setVector(i, v)
	m.recompute([]int{i})
}

// UpdateRows makes vectors[i] vector i for every i named in changed
// (vectors is the caller's full current vector set) and recomputes the
// affected rows and columns in Θ(c·n·d) for c distinct changed vectors.
// All replacements are installed before any row is recomputed, so
// changed–changed pairs use both new vectors. Duplicate indices are
// recomputed once; the return value is the number of distinct rows
// recomputed.
func (m *DistanceMatrix) UpdateRows(changed []int, vectors [][]float64) int {
	for _, i := range changed {
		m.setVector(i, vectors[i])
	}
	rows := dedupChanged(changed)
	m.recompute(rows)
	return len(rows)
}

// recompute re-derives every distance involving the given duplicate-free
// rows from the current vectors: zero the rows' staged cells, then run
// the walker over "these rows, all columns" (rows accumulate in place,
// so a repeated index would double-count itself).
func (m *DistanceMatrix) recompute(rows []int) {
	for _, i := range rows {
		clear(m.d[i*m.n : (i+1)*m.n])
	}
	m.madds = m.fill(rows, false)
}

// dedupChanged returns changed without duplicate indices (first
// occurrence wins, order otherwise preserved). The common case — the
// cross-round cache diffs distinct proposal slots, so the set is
// already duplicate-free — returns the input unchanged without
// allocating.
func dedupChanged(changed []int) []int {
	for k := 1; k < len(changed); k++ {
		for l := 0; l < k; l++ {
			if changed[l] != changed[k] {
				continue
			}
			uniq := make([]int, 0, len(changed))
			seen := make(map[int]bool, len(changed))
			for _, i := range changed {
				if !seen[i] {
					seen[i] = true
					uniq = append(uniq, i)
				}
			}
			return uniq
		}
	}
	return changed
}

// setVector points row i at v (borrowed, not copied).
func (m *DistanceMatrix) setVector(i int, v []float64) {
	checkLen("UpdateRow", len(v), m.dim)
	m.rows[i] = v
}

// VectorEqual reports whether v is element-for-element identical to
// vector i as the matrix sees it — the exact comparison the cross-round
// cache uses to detect unchanged proposals. "Exact" is
// IEEE ==, deliberately NOT a bit-pattern comparison: NaN ≠ NaN, so a
// NaN-carrying proposal always counts as changed and a poisoned round
// can never be served from the cache (TestVectorEqual pins this; in
// practice distsgd halts a run as soon as parameters go non-finite, so
// the conservative recompute costs nothing real). A length mismatch is
// simply "not equal".
func (m *DistanceMatrix) VectorEqual(i int, v []float64) bool {
	if len(v) != m.dim {
		return false
	}
	w := m.rows[i]
	for k, x := range v {
		if x != w[k] {
			return false
		}
	}
	return true
}

// N returns the number of vectors the matrix was built from.
func (m *DistanceMatrix) N() int { return m.n }

// Dim returns the common dimension of the vectors.
func (m *DistanceMatrix) Dim() int { return m.dim }

// At returns the squared distance between vectors i and j.
func (m *DistanceMatrix) At(i, j int) float64 { return m.d[i*m.n+j] }

// Row returns the row of squared distances from vector i to every vector
// (including the zero self-distance). The returned slice aliases internal
// storage and must not be modified.
func (m *DistanceMatrix) Row(i int) []float64 { return m.d[i*m.n : (i+1)*m.n] }

// SumKSmallest returns the sum of the k smallest entries of row,
// skipping index skip and, when alive is non-nil, every index j with
// !alive[j]. With row = m.Row(i), skip = i and k = n − f − 2 it is the
// Krum score s(i); Bulyan passes its shrinking pool as alive. Entries
// rank by Less: a NaN is among the k smallest only when fewer than k
// entries are not NaN, and then the sum is NaN.
//
// scratch must have capacity ≥ k (or ≥ the candidate count). No
// allocation unless the row holds a NaN.
func SumKSmallest(row []float64, skip int, alive []bool, k int, scratch []float64) float64 {
	s := sumKSmallest(row, skip, alive, k, scratch)
	if s == s {
		return s
	}
	// A NaN entered the heap (it never leaves: every comparison with it
	// is false), or +Inf met −Inf. Sum again with the NaNs masked out;
	// if fewer than k entries remain, a NaN is among the k smallest.
	kept, left := make([]bool, len(row)), 0
	for j, v := range row {
		kept[j] = v == v && (alive == nil || alive[j])
		if kept[j] && j != skip {
			left++
		}
	}
	if left < k {
		return math.NaN()
	}
	return sumKSmallest(row, skip, kept, k, scratch)
}

// sumKSmallest is SumKSmallest with every comparison a plain < or >,
// the two agreeing with Less on any row without NaN. scratch holds a
// binary max-heap of the k smallest so far, filled in row order and
// summed in heap layout order, so a score's bits never depend on who
// asked for it. O(len(row)·log k).
func sumKSmallest(row []float64, skip int, alive []bool, k int, scratch []float64) float64 {
	if k <= 0 {
		return 0
	}
	heap := scratch[:0]
	for j, v := range row {
		if j == skip || (alive != nil && !alive[j]) {
			continue
		}
		if len(heap) < k {
			heap = append(heap, v)
			siftUp(heap, len(heap)-1)
			continue
		}
		if v < heap[0] {
			heap[0] = v
			siftDown(heap, 0)
		}
	}
	var s float64
	for _, v := range heap {
		s += v
	}
	return s
}

// KSmallestIndices returns the indices of the k smallest entries of
// vals by Less. Ties are broken in favour of the smaller index, matching
// the paper's footnote 3 tie-break rule. The result is sorted by (value,
// index).
func KSmallestIndices(vals []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	type entry struct {
		v float64
		i int
	}
	// Insertion into a bounded, sorted slice: O(n·k). k is small
	// relative to n in all our uses (k ≤ n), and this keeps the
	// tie-break deterministic without a full sort.
	best := make([]entry, 0, k)
	for i, v := range vals {
		if len(best) == k && !lessEntry(v, i, best[k-1].v, best[k-1].i) {
			continue
		}
		pos := len(best)
		for pos > 0 && lessEntry(v, i, best[pos-1].v, best[pos-1].i) {
			pos--
		}
		if len(best) < k {
			best = append(best, entry{})
		}
		copy(best[pos+1:], best[pos:len(best)-1])
		best[pos] = entry{v: v, i: i}
	}
	out := make([]int, len(best))
	for i, e := range best {
		out[i] = e.i
	}
	return out
}

func lessEntry(v1 float64, i1 int, v2 float64, i2 int) bool {
	return Less(v1, v2) || (!Less(v2, v1) && i1 < i2)
}

func siftUp(h []float64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []float64, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h[l] > h[largest] {
			largest = l
		}
		if r < n && h[r] > h[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
