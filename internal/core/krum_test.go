package core

import (
	"errors"
	"testing"
	"testing/quick"

	"krum/internal/vec"
)

// clusterWithOutliers builds n-f tight proposals around center plus f
// far-away Byzantine proposals.
func clusterWithOutliers(rng *vec.RNG, n, f, d int, center []float64, spread, outlierDist float64) [][]float64 {
	vs := make([][]float64, n)
	for i := 0; i < n-f; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = center[j] + spread*rng.NormFloat64()
		}
		vs[i] = v
	}
	for i := n - f; i < n; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = center[j] + outlierDist + rng.NormFloat64()
		}
		vs[i] = v
	}
	return vs
}

func TestKrumSelectsFromCorrectCluster(t *testing.T) {
	rng := vec.NewRNG(1)
	const n, f, d = 11, 3, 20
	center := rng.NewNormal(d, 0, 1)
	vs := clusterWithOutliers(rng, n, f, d, center, 0.1, 1000)
	k := NewKrum(f)
	sel, err := k.Select(vs)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] >= n-f {
		t.Errorf("Krum selected Byzantine vector %d", sel[0])
	}
	dst := make([]float64, d)
	if err := k.Aggregate(dst, vs); err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(dst, vs[sel[0]], 0) {
		t.Error("Aggregate did not copy the selected vector")
	}
}

func TestKrumScoresMatchDefinition(t *testing.T) {
	// Hand-computable 1-D instance: vectors 0, 1, 3, 10, n=4, f=0.
	// Neighbours per score: n-f-2 = 2.
	vs := [][]float64{{0}, {1}, {3}, {10}}
	k := NewKrum(0)
	scores, err := k.Scores(vs)
	if err != nil {
		t.Fatal(err)
	}
	// s(0): two closest to 0 are 1 (d²=1), 3 (d²=9) → 10
	// s(1): closest are 0 (1), 3 (4) → 5
	// s(2): closest are 1 (4), 0 (9) → 13
	// s(3): closest are 3 (49), 1 (81) → 130
	want := []float64{10, 5, 13, 130}
	if !vec.ApproxEqual(scores, want, 1e-12) {
		t.Errorf("scores = %v, want %v", scores, want)
	}
	sel, err := k.Select(vs)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != 1 {
		t.Errorf("selected %d, want 1", sel[0])
	}
}

func TestKrumTieBreaksToSmallestID(t *testing.T) {
	// Two identical pairs: scores tie; paper footnote 3 says pick the
	// smallest worker id.
	vs := [][]float64{{0, 0}, {0, 0}, {5, 5}, {5, 5}}
	k := NewKrum(0)
	sel, err := k.Select(vs)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != 0 {
		t.Errorf("tie broken to %d, want 0", sel[0])
	}
}

func TestKrumOutputIsAlwaysAnInputProperty(t *testing.T) {
	f := func(seed uint64, n8, f8, d8 uint8) bool {
		n := int(n8%10) + 4
		fByz := int(f8) % maxInt(1, n-3) // ensure n ≥ f+3 ⇒ f ≤ n-3
		d := int(d8%6) + 1
		rng := vec.NewRNG(seed)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = rng.NewNormal(d, 0, 5)
		}
		k := NewKrum(fByz)
		dst := make([]float64, d)
		if err := k.Aggregate(dst, vs); err != nil {
			return false
		}
		for _, v := range vs {
			if vec.ApproxEqual(dst, v, 0) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Krum must be invariant under permutation of its inputs (up to the
// identity of the returned vector — the value must match, not the index).
func TestKrumPermutationInvarianceProperty(t *testing.T) {
	f := func(seed uint64, n8, f8 uint8) bool {
		n := int(n8%8) + 5
		fByz := int(f8) % (n - 3)
		const d = 4
		rng := vec.NewRNG(seed)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = rng.NewNormal(d, 0, 3)
		}
		k := NewKrum(fByz)
		a := make([]float64, d)
		if err := k.Aggregate(a, vs); err != nil {
			return false
		}
		shuffled := append([][]float64(nil), vs...)
		for i := n - 1; i > 0; i-- { // Fisher–Yates
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		b := make([]float64, d)
		if err := k.Aggregate(b, shuffled); err != nil {
			return false
		}
		// With random continuous data, ties have measure zero, so the
		// selected VALUE must be identical.
		return vec.ApproxEqual(a, b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Krum never selects any of f far outliers when the correct
// majority is tight and 2f+2 < n — the headline robustness property.
func TestKrumRejectsOutliersProperty(t *testing.T) {
	f := func(seed uint64, n8, f8 uint8) bool {
		n := int(n8%10) + 9 // 9..18
		maxF := (n - 3) / 2 // 2f+2 < n
		fByz := int(f8)%maxF + 1
		const d = 8
		rng := vec.NewRNG(seed)
		center := rng.NewNormal(d, 0, 1)
		vs := clusterWithOutliers(rng, n, fByz, d, center, 0.05, 500)
		k := NewKrum(fByz)
		sel, err := k.Select(vs)
		if err != nil {
			return false
		}
		return sel[0] < n-fByz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKrumErrorCases(t *testing.T) {
	d := 3
	mk := func(n int) [][]float64 {
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = make([]float64, d)
		}
		return vs
	}
	dst := make([]float64, d)

	tests := []struct {
		name    string
		k       *Krum
		vs      [][]float64
		dst     []float64
		wantErr error
	}{
		{name: "no vectors", k: NewKrum(0), vs: nil, dst: dst, wantErr: ErrNoVectors},
		{name: "negative f", k: NewKrum(-1), vs: mk(5), dst: dst, wantErr: ErrBadParameter},
		{name: "n too small", k: NewKrum(3), vs: mk(5), dst: dst, wantErr: ErrTooFewWorkers},
		{name: "dst mismatch", k: NewKrum(0), vs: mk(5), dst: make([]float64, 2), wantErr: ErrDimensionMismatch},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.k.Aggregate(tt.dst, tt.vs)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}

	t.Run("ragged dimensions", func(t *testing.T) {
		vs := mk(5)
		vs[2] = make([]float64, d+1)
		if err := NewKrum(0).Aggregate(dst, vs); !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("err = %v, want ErrDimensionMismatch", err)
		}
	})
}

func TestKrumDoesNotMutateInputs(t *testing.T) {
	rng := vec.NewRNG(5)
	vs := make([][]float64, 6)
	for i := range vs {
		vs[i] = rng.NewNormal(4, 0, 1)
	}
	orig := vec.CloneAll(vs)
	dst := make([]float64, 4)
	if err := NewKrum(1).Aggregate(dst, vs); err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if !vec.ApproxEqual(vs[i], orig[i], 0) {
			t.Fatalf("input vector %d mutated", i)
		}
	}
}

func TestMultiKrumSelectOrdering(t *testing.T) {
	// n=6, f=1 ⇒ neighbours = 3. Construct a tight cluster plus two
	// progressively farther points; multi-krum m=3 must pick three
	// cluster members.
	vs := [][]float64{{0}, {0.1}, {-0.1}, {0.05}, {50}, {100}}
	mk := NewMultiKrum(1, 3)
	sel, err := mk.Select(vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("selected %d vectors, want 3", len(sel))
	}
	for _, i := range sel {
		if i >= 4 {
			t.Errorf("multi-krum selected outlier %d", i)
		}
	}
}

func TestMultiKrumMEqualsOneMatchesKrum(t *testing.T) {
	rng := vec.NewRNG(6)
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(8)
		f := rng.Intn(n - 3)
		d := 1 + rng.Intn(5)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = rng.NewNormal(d, 0, 2)
		}
		a := make([]float64, d)
		b := make([]float64, d)
		if err := NewKrum(f).Aggregate(a, vs); err != nil {
			t.Fatal(err)
		}
		if err := NewMultiKrum(f, 1).Aggregate(b, vs); err != nil {
			t.Fatal(err)
		}
		if !vec.ApproxEqual(a, b, 0) {
			t.Fatalf("trial %d: multikrum(m=1) != krum", trial)
		}
	}
}

func TestMultiKrumMEqualsNMatchesAverage(t *testing.T) {
	rng := vec.NewRNG(7)
	const n, d = 8, 5
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 2)
	}
	a := make([]float64, d)
	b := make([]float64, d)
	if err := NewMultiKrum(0, n).Aggregate(a, vs); err != nil {
		t.Fatal(err)
	}
	if err := (Average{}).Aggregate(b, vs); err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(a, b, 1e-12) {
		t.Error("multikrum(m=n) != average")
	}
}

func TestMultiKrumParameterValidation(t *testing.T) {
	vs := [][]float64{{1}, {2}, {3}, {4}, {5}}
	dst := make([]float64, 1)
	if err := NewMultiKrum(0, 0).Aggregate(dst, vs); !errors.Is(err, ErrBadParameter) {
		t.Errorf("m=0: err = %v", err)
	}
	if err := NewMultiKrum(0, 6).Aggregate(dst, vs); !errors.Is(err, ErrBadParameter) {
		t.Errorf("m>n: err = %v", err)
	}
	if NewMultiKrum(1, 2).Name() != "multikrum(m=2)" {
		t.Error("Name mismatch")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Property: Krum is translation-equivariant — Kr(V+t) = Kr(V) + t.
// Distances are translation invariant, so the same worker wins.
func TestKrumTranslationEquivarianceProperty(t *testing.T) {
	f := func(seed uint64, n8, f8 uint8) bool {
		n := int(n8%8) + 5
		fByz := int(f8) % (n - 3)
		const d = 4
		rng := vec.NewRNG(seed)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = rng.NewNormal(d, 0, 2)
		}
		shift := rng.NewNormal(d, 0, 10)
		shifted := make([][]float64, n)
		for i, v := range vs {
			s := vec.Clone(v)
			vec.Axpy(1, shift, s)
			shifted[i] = s
		}
		k := NewKrum(fByz)
		a := make([]float64, d)
		b := make([]float64, d)
		if err := k.Aggregate(a, vs); err != nil {
			return false
		}
		if err := k.Aggregate(b, shifted); err != nil {
			return false
		}
		vec.Axpy(1, shift, a)
		return vec.ApproxEqual(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Krum is positively scale-equivariant — Kr(c·V) = c·Kr(V)
// for c > 0 (all squared distances scale by c², preserving order).
func TestKrumScaleEquivarianceProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8, c8 uint8) bool {
		n := int(n8%8) + 5
		c := 0.1 + float64(c8)/16 // positive scale
		const d, fByz = 3, 1
		rng := vec.NewRNG(seed)
		vs := make([][]float64, n)
		scaled := make([][]float64, n)
		for i := range vs {
			vs[i] = rng.NewNormal(d, 0, 2)
			s := vec.Clone(vs[i])
			vec.Scale(c, s)
			scaled[i] = s
		}
		k := NewKrum(fByz)
		a := make([]float64, d)
		b := make([]float64, d)
		if err := k.Aggregate(a, vs); err != nil {
			return false
		}
		if err := k.Aggregate(b, scaled); err != nil {
			return false
		}
		vec.Scale(c, a)
		return vec.ApproxEqual(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Krum scores are non-negative and zero only for a worker
// whose n−f−2 nearest neighbours coincide with it.
func TestKrumScoresNonNegativeProperty(t *testing.T) {
	f := func(seed uint64, n8, f8 uint8) bool {
		n := int(n8%8) + 5
		fByz := int(f8) % (n - 3)
		rng := vec.NewRNG(seed)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = rng.NewNormal(3, 0, 1)
		}
		scores, err := NewKrum(fByz).Scores(vs)
		if err != nil {
			return false
		}
		for _, s := range scores {
			if s < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
