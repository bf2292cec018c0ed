package core

import (
	"errors"
	"math"
	"testing"

	"krum/internal/vec"
)

func TestFiniteGuardNeutralizesNaNProposal(t *testing.T) {
	rng := vec.NewRNG(1)
	const n, f, d = 9, 2, 6
	center := rng.NewNormal(d, 5, 0.1)
	vs := make([][]float64, n)
	for i := 0; i < n-f; i++ {
		v := vec.Clone(center)
		for j := range v {
			v[j] += 0.05 * rng.NormFloat64()
		}
		vs[i] = v
	}
	// Byzantine slot 1: all NaN. Byzantine slot 2: one Inf coordinate.
	nan := make([]float64, d)
	vec.Fill(nan, math.NaN())
	vs[n-2] = nan
	inf := vec.Clone(center)
	inf[3] = math.Inf(1)
	vs[n-1] = inf

	// Unguarded Krum degenerates: NaN distances poison every honest
	// score, and the NaN-vector can win the argmin.
	raw := NewKrum(f)
	rawSel, err := raw.Select(vs)
	if err != nil {
		t.Fatal(err)
	}
	// (Documenting the hazard rather than asserting a specific index:
	// scores involving NaN make the comparison semantics fragile.)
	_ = rawSel

	guarded := FiniteGuard{Inner: NewKrum(f)}
	dst := make([]float64, d)
	if err := guarded.Aggregate(dst, vs); err != nil {
		t.Fatal(err)
	}
	if !vec.AllFinite(dst) {
		t.Fatal("guarded output is non-finite")
	}
	if vec.Dist(dst, center) > 1 {
		t.Errorf("guarded output %v far from center", dst)
	}
	sel, err := guarded.Select(vs)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] >= n-f {
		// Selecting a sanitized (zero) Byzantine slot is allowed only
		// if zero is closer to the cluster than honest proposals —
		// impossible here since the cluster sits at distance 5·√6.
		t.Errorf("guard selected sanitized Byzantine slot %d", sel[0])
	}
}

func TestFiniteGuardPassthroughWhenClean(t *testing.T) {
	rng := vec.NewRNG(2)
	const n, d = 7, 4
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	a := make([]float64, d)
	b := make([]float64, d)
	if err := NewKrum(1).Aggregate(a, vs); err != nil {
		t.Fatal(err)
	}
	if err := (FiniteGuard{Inner: NewKrum(1)}).Aggregate(b, vs); err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(a, b, 0) {
		t.Error("guard changed clean aggregation")
	}
}

func TestFiniteGuardDoesNotMutateCallerSlices(t *testing.T) {
	nan := []float64{math.NaN(), 1}
	vs := [][]float64{{1, 1}, {1.1, 0.9}, {0.9, 1.1}, {1, 0.95}, nan}
	dst := make([]float64, 2)
	if err := (FiniteGuard{Inner: Average{}}).Aggregate(dst, vs); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(vs[4][0]) {
		t.Error("guard mutated the caller's proposal")
	}
	if !vec.AllFinite(dst) {
		t.Error("guarded average non-finite")
	}
}

func TestFiniteGuardErrors(t *testing.T) {
	dst := make([]float64, 1)
	if err := (FiniteGuard{}).Aggregate(dst, [][]float64{{1}}); !errors.Is(err, ErrBadParameter) {
		t.Errorf("nil inner: %v", err)
	}
	if err := (FiniteGuard{Inner: Average{}}).Aggregate(dst, nil); !errors.Is(err, ErrNoVectors) {
		t.Errorf("empty input: %v", err)
	}
	if _, err := (FiniteGuard{Inner: Average{}}).Select([][]float64{{1}}); !errors.Is(err, ErrBadParameter) {
		t.Errorf("non-selector inner: %v", err)
	}
	if got := (FiniteGuard{Inner: NewKrum(1)}).Name(); got != "finiteguard(krum)" {
		t.Errorf("name %q", got)
	}
	if got := (FiniteGuard{}).Name(); got != "finiteguard(nil)" {
		t.Errorf("nil name %q", got)
	}
}

func TestKrumParallelMatchesSerial(t *testing.T) {
	vs := engineTestVectors(fanOutN, fanOutD, 5)
	rule := Krum{F: 10}
	sameBitsAcrossProcs(t, "krum scores", []int{1, 2, 4}, func() []float64 {
		scores, err := rule.Scores(vs)
		if err != nil {
			t.Fatal(err)
		}
		return scores
	})
}

// TestFiniteGuardSanitizedBuildAnyProcs: the context FiniteGuard makes
// over a sanitized round builds like any other — a fan-out shape with
// one NaN proposal aggregates to the same bits under GOMAXPROCS 1, 2
// and 3. (finiteguard is not a registry spec, so no scenario cell
// reaches this path.)
func TestFiniteGuardSanitizedBuildAnyProcs(t *testing.T) {
	vs := engineTestVectors(fanOutN, fanOutD, 6)
	vs[7][123] = math.NaN()
	guard := FiniteGuard{Inner: NewKrum(10)}
	sameBitsAcrossProcs(t, "guarded krum", []int{1, 2, 3}, func() []float64 {
		got := make([]float64, fanOutD)
		before := vec.MatrixBuildCount()
		if err := new(Engine).Aggregate(guard, got, vs); err != nil {
			t.Fatal(err)
		}
		if builds := vec.MatrixBuildCount() - before; builds != 1 {
			t.Fatalf("%d matrices built, want the sanitized round's one", builds)
		}
		return got
	})
}
