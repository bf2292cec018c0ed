package core

import (
	"math"
	"runtime"
	"testing"

	"krum/internal/vec"
)

func engineTestVectors(n, d int, seed uint64) [][]float64 {
	rng := vec.NewRNG(seed)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	return vs
}

// fanOutN × fanOutD is the tracked aggregate_dense shape: 7.8 Mflop of
// distance build, which vec fans out on min(GOMAXPROCS, 3) goroutines —
// so a computation run under GOMAXPROCS 1 and 3 has been on both sides
// of the build's one decision.
const fanOutN, fanOutD = 40, 10_000

// sameBitsAcrossProcs runs compute under each GOMAXPROCS setting in
// turn and fails unless every run returns the first one's floats, bit
// for bit. GOMAXPROCS is process-wide, so its callers do not run in
// parallel with other tests.
func sameBitsAcrossProcs(t *testing.T, what string, procs []int, compute func() []float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []float64
	for k, p := range procs {
		runtime.GOMAXPROCS(p)
		got := compute()
		if k == 0 {
			want = got
		}
		if len(got) != len(want) {
			t.Fatalf("%s under GOMAXPROCS %d: %d values, under %d: %d", what, p, len(got), procs[0], len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s under GOMAXPROCS %d: value %d = %v, under %d: %v", what, p, i, got[i], procs[0], want[i])
			}
		}
	}
}

// cells returns a copy of every cell of the matrix, row major.
func cells(dm *vec.DistanceMatrix) []float64 {
	var out []float64
	for i := 0; i < dm.N(); i++ {
		out = append(out, dm.Row(i)...)
	}
	return out
}

// TestRoundContextMemoizesMatrix: selection tracking plus aggregation
// through one shared context builds exactly one distance matrix.
func TestRoundContextMemoizesMatrix(t *testing.T) {
	t.Parallel()
	const n, d, f = 11, 8, 2
	vs := engineTestVectors(n, d, 1)
	dst := make([]float64, d)
	rule := NewKrum(f)
	engine := new(Engine)

	ctx := engine.Round(vs)
	if _, err := SelectContext(rule, ctx); err != nil {
		t.Fatal(err)
	}
	if err := AggregateContext(rule, dst, ctx); err != nil {
		t.Fatal(err)
	}
	if got := engine.Stats().Builds; got != 1 {
		t.Fatalf("shared context built %d matrices for select+aggregate, want 1", got)
	}

	// A context per call pays twice — that is exactly what sharing saves.
	if _, err := engine.Select(rule, vs); err != nil {
		t.Fatal(err)
	}
	if err := engine.Aggregate(rule, dst, vs); err != nil {
		t.Fatal(err)
	}
	if got := engine.Stats().Builds - 1; got != 2 {
		t.Fatalf("a context per call built %d matrices, want 2", got)
	}
}

// TestEngineMatchesDirectRules: for every registered rule, aggregation
// through the engine produces the same output (and the same selection)
// as calling the rule directly.
func TestEngineMatchesDirectRules(t *testing.T) {
	const n, d = 15, 7
	ctx := SpecContext{N: n, F: 3}
	vs := engineTestVectors(n, d, 2)
	engine := new(Engine)
	for _, name := range Names() {
		spec := name
		if name == "krumk" {
			spec = "krumk(k=3)"
		}
		rule, err := ParseRuleIn(ctx, spec)
		if err != nil {
			t.Fatalf("ParseRuleIn(%q): %v", spec, err)
		}
		direct := make([]float64, d)
		viaEngine := make([]float64, d)
		if err := rule.Aggregate(direct, vs); err != nil {
			t.Fatalf("%s direct: %v", spec, err)
		}
		if err := engine.Aggregate(rule, viaEngine, vs); err != nil {
			t.Fatalf("%s engine: %v", spec, err)
		}
		if !vec.ApproxEqual(direct, viaEngine, 0) {
			t.Errorf("%s: engine output differs from direct output", spec)
		}
		sel, ok := rule.(Selector)
		if !ok {
			continue
		}
		want, err := sel.Select(vs)
		if err != nil {
			t.Fatalf("%s direct select: %v", spec, err)
		}
		got, err := engine.Select(sel, vs)
		if err != nil {
			t.Fatalf("%s engine select: %v", spec, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: engine selected %v, direct %v", spec, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: engine selected %v, direct %v", spec, got, want)
			}
		}
	}
}

// TestEngineParallelMatrixMatchesSerial: an engine whose builds fan out
// must produce the matrix, bit for bit, and so the selection of one
// held to a single goroutine.
func TestEngineParallelMatrixMatchesSerial(t *testing.T) {
	vs := engineTestVectors(fanOutN, fanOutD, 3)
	rule := NewKrum(10)
	sameBitsAcrossProcs(t, "selection and cells", []int{1, 2, 4}, func() []float64 {
		ctx := new(Engine).Round(vs)
		sel, err := SelectContext(rule, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64{float64(sel[0])}, cells(ctx.Distances())...)
	})
}

// TestFiniteGuardContextSharesMatrixWhenClean: a guard wrapping a
// context-aware rule reuses the shared matrix when no proposal needs
// sanitization, and still neutralizes NaNs when one does.
func TestFiniteGuardContextSharesMatrixWhenClean(t *testing.T) {
	t.Parallel()
	const n, d, f = 11, 6, 2
	vs := engineTestVectors(n, d, 4)
	dst := make([]float64, d)
	guard := FiniteGuard{Inner: NewKrum(f)}
	engine := new(Engine)

	ctx := engine.Round(vs)
	if _, err := SelectContext(guard, ctx); err != nil {
		t.Fatal(err)
	}
	if err := AggregateContext(guard, dst, ctx); err != nil {
		t.Fatal(err)
	}
	if got := engine.Stats().Builds; got != 1 {
		t.Fatalf("clean guard built %d matrices, want 1", got)
	}

	// Poison one proposal: the guard must rebuild over the sanitized
	// view, counted on the engine, and still aggregate finitely.
	poisoned := vec.CloneAll(vs)
	poisoned[0][0] = nan()
	if err := engine.Aggregate(guard, dst, poisoned); err != nil {
		t.Fatal(err)
	}
	if got := engine.Stats().Builds - 1; got != 1 {
		t.Fatalf("sanitized guard built %d matrices, want the sanitized round's one", got)
	}
	if !vec.AllFinite(dst) {
		t.Fatal("guard let a NaN through")
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}
