package vec

// The blocked compositions of one pair and of the 1×4 and 2×4 tiles
// over full-length vectors: what DistanceMatrix.fill computes per cell,
// written out for one pair and one tile so gram_test.go can pin the
// tiles against dotPair at multi-block dimensions. Production code
// composes the tiles in place (fill) and takes even the norms from
// them, so these live with the tests.

// dotPair returns ⟨a,b⟩ in the active tier's canonical blocked
// accumulation order.
func dotPair(a, b []float64) float64 {
	n := len(a)
	if n <= gramBlock {
		return dotPairBlock(a, b)
	}
	b = b[:n]
	var s float64
	for k := 0; k < n; k += gramBlock {
		e := k + gramBlock
		if e > n {
			e = n
		}
		s += dotPairBlock(a[k:e], b[k:e])
	}
	return s
}

// dot4 returns ⟨a,b0⟩, ⟨a,b1⟩, ⟨a,b2⟩, ⟨a,b3⟩ in the active tier's
// canonical blocked order; every column is bit-identical to
// dotPair(a, bi).
func dot4(a, b0, b1, b2, b3 []float64) (float64, float64, float64, float64) {
	n := len(a)
	if n <= gramBlock {
		return dot4Block(a, b0, b1, b2, b3)
	}
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	var r0, r1, r2, r3 float64
	for k := 0; k < n; k += gramBlock {
		e := k + gramBlock
		if e > n {
			e = n
		}
		p0, p1, p2, p3 := dot4Block(a[k:e], b0[k:e], b1[k:e], b2[k:e], b3[k:e])
		r0 += p0
		r1 += p1
		r2 += p2
		r3 += p3
	}
	return r0, r1, r2, r3
}

// dot24 computes the 2×4 tile in the active tier's canonical blocked
// order; see dot24Go for the output layout. Every cell is
// bit-identical to the corresponding dotPair.
func dot24(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	n := len(a0)
	if n <= gramBlock {
		dot24Block(a0, a1, b0, b1, b2, b3, out)
		return
	}
	a1 = a1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	*out = [8]float64{}
	var t [8]float64
	for k := 0; k < n; k += gramBlock {
		e := k + gramBlock
		if e > n {
			e = n
		}
		dot24Block(a0[k:e], a1[k:e], b0[k:e], b1[k:e], b2[k:e], b3[k:e], &t)
		for i := range out {
			out[i] += t[i]
		}
	}
}
