package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{name: "empty", a: nil, b: nil, want: 0},
		{name: "orthogonal", a: []float64{1, 0}, b: []float64{0, 1}, want: 0},
		{name: "parallel", a: []float64{1, 2, 3}, b: []float64{2, 4, 6}, want: 28},
		{name: "negative", a: []float64{-1, 2}, b: []float64{3, -4}, want: -11},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); got != tt.want {
				t.Errorf("Dot(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, 4}
	if got := Norm2(v); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
	if got := Norm(v); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Errorf("Norm(nil) = %v, want 0", got)
	}
}

func TestDist2(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 6, 3}
	if got := Dist2(a, b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestAxpyScaleAddSub(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	if !ApproxEqual(y, []float64{3, 5, 7}, 0) {
		t.Errorf("Axpy result = %v", y)
	}
	Scale(0.5, y)
	if !ApproxEqual(y, []float64{1.5, 2.5, 3.5}, 0) {
		t.Errorf("Scale result = %v", y)
	}
	dst := make([]float64, 3)
	Add(dst, []float64{1, 2, 3}, []float64{4, 5, 6})
	if !ApproxEqual(dst, []float64{5, 7, 9}, 0) {
		t.Errorf("Add result = %v", dst)
	}
	Sub(dst, []float64{1, 2, 3}, []float64{4, 5, 6})
	if !ApproxEqual(dst, []float64{-3, -3, -3}, 0) {
		t.Errorf("Sub result = %v", dst)
	}
	Mul(dst, []float64{1, 2, 3}, []float64{4, 5, 6})
	if !ApproxEqual(dst, []float64{4, 10, 18}, 0) {
		t.Errorf("Mul result = %v", dst)
	}
}

func TestAddAliasing(t *testing.T) {
	a := []float64{1, 2}
	Add(a, a, a)
	if !ApproxEqual(a, []float64{2, 4}, 0) {
		t.Errorf("aliased Add = %v, want [2 4]", a)
	}
}

func TestMean(t *testing.T) {
	vs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	dst := make([]float64, 2)
	Mean(dst, vs)
	if !ApproxEqual(dst, []float64{3, 4}, 1e-15) {
		t.Errorf("Mean = %v, want [3 4]", dst)
	}
	MeanOf(dst, vs, []int{2, 1})
	if !ApproxEqual(dst, []float64{4, 5}, 1e-15) {
		t.Errorf("MeanOf(…, [2 1]) = %v, want [4 5]", dst)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	for name, mean := range map[string]func(){
		"no vectors": func() { Mean(make([]float64, 1), nil) },
		"no indices": func() { MeanOf(make([]float64, 1), [][]float64{{1}}, []int{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mean of zero vectors did not panic", name)
				}
			}()
			mean()
		}()
	}
}

func TestWeightedSum(t *testing.T) {
	vs := [][]float64{{1, 0}, {0, 1}}
	dst := make([]float64, 2)
	WeightedSum(dst, []float64{2, 3}, vs)
	if !ApproxEqual(dst, []float64{2, 3}, 0) {
		t.Errorf("WeightedSum = %v", dst)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := []float64{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) != nil")
	}
	vs := [][]float64{{1}, {2}}
	cs := CloneAll(vs)
	cs[0][0] = 42
	if vs[0][0] != 1 {
		t.Error("CloneAll shares storage")
	}
}

func TestArgminArgmax(t *testing.T) {
	tests := []struct {
		name     string
		v        []float64
		min, max int
	}{
		{name: "empty", v: nil, min: -1, max: -1},
		{name: "single", v: []float64{7}, min: 0, max: 0},
		{name: "basic", v: []float64{3, 1, 2}, min: 1, max: 0},
		{name: "ties pick first", v: []float64{1, 1, 0, 0}, min: 2, max: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Argmin(tt.v); got != tt.min {
				t.Errorf("Argmin(%v) = %d, want %d", tt.v, got, tt.min)
			}
			if got := Argmax(tt.v); got != tt.max {
				t.Errorf("Argmax(%v) = %d, want %d", tt.v, got, tt.max)
			}
		})
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("finite vector reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("+Inf not detected")
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("Sum = %v", got)
	}
}

// Property: Cauchy–Schwarz, |<a,b>| <= |a||b|.
func TestDotCauchySchwarzProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := sanitize(raw[:half]), sanitize(raw[half:2*half])
		lhs := math.Abs(Dot(a, b))
		rhs := Norm(a) * Norm(b)
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist.
func TestDistTriangleProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		third := len(raw) / 3
		a := sanitize(raw[:third])
		b := sanitize(raw[third : 2*third])
		c := sanitize(raw[2*third : 3*third])
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sanitize maps arbitrary quick-generated floats into a bounded, finite
// range so that property checks are not dominated by overflow.
func sanitize(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[i] = math.Mod(x, 1e6)
	}
	return out
}
