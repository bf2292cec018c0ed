package vec

import "fmt"

// Dense is a row-major dense matrix of float64. It is the workhorse of
// the from-scratch neural-network substrate (package model): forward and
// backward passes are expressed as a handful of Dense products.
//
// The zero value is an empty 0×0 matrix; construct with NewDense to get a
// usable shape.
type Dense struct {
	Rows, Cols int
	// Data holds Rows*Cols values, row major: element (i, j) lives at
	// Data[i*Cols+j].
	Data []float64
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vec: NewDense(%d, %d): negative dimension", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFrom wraps an existing backing slice (no copy). It panics if
// len(data) != rows*cols.
func NewDenseFrom(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("vec: NewDenseFrom: len(data)=%d, want %d", len(data), rows*cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: Clone(m.Data)}
}

// Zero sets all elements to 0.
func (m *Dense) Zero() { Zero(m.Data) }

// MatMul computes dst = a·b where a is (r×k) and b is (k×c); dst must be
// (r×c) and must not alias a or b.
//
// The accumulation order is part of every stored result: element (i, j)
// starts at +0 and adds a[i][k]·b[k][j] for k = 0, 1, … in increasing k,
// each term as `acc += x*y` (on amd64 a rounded multiply then a rounded
// add), and a term whose coefficient a[i][k] is zero is skipped
// outright — so a NaN or ±Inf in row k of b does not reach row i of dst
// when a[i][k] == 0. ReLU activations and clamped image pixels make
// those zeros common (≈ 45 % on the mnist workload).
//
// The contract is per element and says nothing about j, which is what
// lets one implementation use SIMD without becoming a second order:
// lanes run across j, never across k; multiply and add are separately
// rounded on every tier (no FMA); and a zero (or −0) coefficient skips
// its term before any lane is loaded. One thing is left unspecified:
// when a multiply or an add meets two NaNs of different payloads, which
// payload survives (the hardware keeps its first operand's, and the
// compiler orders the operands of the Go loop term by term). That the
// element is NaN is guaranteed; its payload is only when every NaN in
// a and b carries the same one.
func MatMul(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("vec: MatMul: shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if useLanes(dst.Cols) {
		matMulLanes(dst, a.Data, a.Cols, 1, b)
		return
	}
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		accumulateRows(dst.Row(i), a.Data, i*a.Cols, 1, b)
	}
}

// MatMulATB computes dst = aᵀ·b where a is (k×r) and b is (k×c); dst must
// be (r×c). Used for weight-gradient accumulation in backprop
// (dW = xᵀ·dy) without materializing transposes. The accumulation order
// is MatMul's, with a[k][i] as the coefficient of element (i, j)'s k-th
// term.
func MatMulATB(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("vec: MatMulATB: shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if useLanes(dst.Cols) {
		matMulLanes(dst, a.Data, 1, a.Cols, b)
		return
	}
	dst.Zero()
	for i := 0; i < a.Cols; i++ {
		accumulateRows(dst.Row(i), a.Data, i, a.Cols, b)
	}
}

// accumulateRows adds Σ_k coef[first+k·stride]·b.Row(k) to drow in the
// order MatMul documents: the Go loops, which run on a cleared dst
// wherever the AVX2 kernel does not (matMulLanes writes each row from
// +0 itself, so dst is not cleared there). The indices of nonzero
// coefficients are gathered four at a time, so that drow is loaded and
// stored once per four terms; each element still sees its terms one by
// one in increasing k. Its four-entry index buffer is all the scratch
// there is: a buffer sized to the row would be zeroed on every call,
// which the 8×6·6×3 products of the small workloads cannot afford.
func accumulateRows(drow, coef []float64, first, stride int, b *Dense) {
	var ks [4]int
	n := 0
	for k := 0; k < b.Rows; k++ {
		ks[n] = k
		if coef[first+k*stride] != 0 {
			n++
		}
		if n < len(ks) {
			continue
		}
		n = 0
		a0, a1, a2, a3 := coef[first+ks[0]*stride], coef[first+ks[1]*stride], coef[first+ks[2]*stride], coef[first+ks[3]*stride]
		b0, b1, b2, b3 := b.Row(ks[0])[:len(drow)], b.Row(ks[1])[:len(drow)], b.Row(ks[2])[:len(drow)], b.Row(ks[3])[:len(drow)]
		for j, d := range drow {
			d += float64(a0 * b0[j])
			d += float64(a1 * b1[j])
			d += float64(a2 * b2[j])
			d += float64(a3 * b3[j])
			drow[j] = d
		}
	}
	for _, k := range ks[:n] {
		Axpy(coef[first+k*stride], b.Row(k), drow)
	}
}

// MatMulABT computes dst = a·bᵀ where a is (r×k) and b is (c×k); dst must
// be (r×c). Used for input-gradient propagation in backprop
// (dx = dy·Wᵀ). Element (i, j) is Dot(a.Row(i), b.Row(j)), bit for bit:
// four of them are summed side by side, each still in increasing k,
// so that four independent chains of adds share the loop instead of
// one chain waiting on its own latency.
func MatMulABT(dst, a, b *Dense) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("vec: MatMulABT: shape mismatch (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0, b1, b2, b3 := b.Row(j)[:len(arow)], b.Row(j + 1)[:len(arow)], b.Row(j + 2)[:len(arow)], b.Row(j + 3)[:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}

// AddRowVector adds the row vector v to every row of m in place
// (broadcast bias addition).
func AddRowVector(m *Dense, v []float64) {
	checkLen("AddRowVector", m.Cols, len(v))
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// SumRows accumulates the column-wise sum of m into dst (len m.Cols) —
// the bias-gradient reduction in backprop.
func SumRows(dst []float64, m *Dense) {
	checkLen("SumRows", m.Cols, len(dst))
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		Axpy(1, m.Row(i), dst)
	}
}
