package scenario_test

// Runner ↔ ResultStore integration: the warm-path acceptance criteria
// (zero distance-matrix work for cached cells, byte-identical results)
// and the RunCells ordering/error-aggregation guarantee with store
// hits interleaved with live runs. These live in an external test
// package because scenario/store imports scenario.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"krum/distsgd"
	"krum/internal/core"
	"krum/scenario"
	"krum/scenario/store"
)

// storeSpec is a seconds-scale base cell for the store tests.
func storeSpec() scenario.Spec {
	return scenario.Spec{
		Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
		Rule:      "krum",
		Attack:    "gaussian(sigma=200)",
		Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
		N:         9,
		F:         2,
		Rounds:    10,
		BatchSize: 8,
		Seed:      11,
		EvalEvery: 5,
		EvalBatch: 64,
	}
}

// storeMatrix is a small rules × seeds grid over storeSpec.
func storeMatrix() scenario.Matrix {
	return scenario.Matrix{
		Base:  storeSpec(),
		Rules: []string{"krum", "average"},
		Seeds: []uint64{1, 2},
	}
}

func encodeResult(t *testing.T, r *distsgd.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunnerWarmStoreZeroRebuildsByteIdentical is the tentpole
// acceptance criterion at the Runner level: re-running the same matrix
// through a warm store performs zero distance-matrix rebuilds (and
// zero incremental row updates) for the cached cells, and every result
// is byte-identical to the cold run — at a different worker count, to
// pin that hits preserve the determinism contract too.
func TestRunnerWarmStoreZeroRebuildsByteIdentical(t *testing.T) {
	t.Parallel()
	st := store.NewMemory()
	m := storeMatrix()

	cold, err := (&scenario.Runner{Workers: 1, Store: st}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range cold {
		if cr.Cached {
			t.Fatalf("cold run cell %d reported cached", cr.Index)
		}
	}

	warm, err := (&scenario.Runner{Workers: 4, Store: st}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm run returned %d cells, want %d", len(warm), len(cold))
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Errorf("warm cell %d not served from store", i)
		}
		if st := warm[i].Result.Stats; st != (core.CacheStats{}) {
			t.Errorf("warm cell %d did distance work %+v, want none", i, st)
		}
		if warm[i].Index != i || cold[i].Index != i {
			t.Errorf("cell %d carries index %d/%d; want positional indexing", i, cold[i].Index, warm[i].Index)
		}
		if encodeResult(t, warm[i].Result) != encodeResult(t, cold[i].Result) {
			t.Errorf("cell %d (%s): warm result not byte-identical to cold", i, warm[i].Spec.Label())
		}
	}
	if hits := st.Stats().Hits; hits != len(warm) {
		t.Errorf("store hits = %d, want %d", hits, len(warm))
	}
}

// TestRunnerOverlappingGridsShareCells runs two different matrices
// whose expansions overlap and checks the second only computes the
// cells the first did not cover — the "-exp all after -exp table1"
// economics.
func TestRunnerOverlappingGridsShareCells(t *testing.T) {
	st := store.NewMemory()
	small := scenario.Matrix{Base: storeSpec(), Rules: []string{"krum"}, Seeds: []uint64{1, 2}}
	big := scenario.Matrix{Base: storeSpec(), Rules: []string{"krum", "average"}, Seeds: []uint64{1, 2}}

	if _, err := (&scenario.Runner{Store: st}).Run(small); err != nil {
		t.Fatal(err)
	}
	results, err := (&scenario.Runner{Store: st}).Run(big)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, cr := range results {
		if cr.Cached {
			cached++
		}
	}
	if cached != small.Size() {
		t.Errorf("big grid served %d cells from store, want the %d overlapping ones", cached, small.Size())
	}
}

// TestRunCellsOrderingAndErrorAggregation pins the documented
// guarantee: results[i].Index == i for cells[i] even when store hits,
// live runs and failures interleave; the error joins per-cell failures
// in index order while the full slice is still returned.
func TestRunCellsOrderingAndErrorAggregation(t *testing.T) {
	st := store.NewMemory()
	good := storeSpec()
	// Pre-warm only the first cell, so the run mixes a hit, a failure
	// and a live computation.
	if _, err := (&scenario.Runner{Store: st}).RunCells([]scenario.Spec{good}); err != nil {
		t.Fatal(err)
	}
	bad := storeSpec()
	bad.Rule = "no-such-rule"
	live := storeSpec()
	live.Seed = 77

	cells := []scenario.Spec{good, bad, live}
	results, err := (&scenario.Runner{Workers: 3, Store: st}).RunCells(cells)
	if err == nil {
		t.Fatal("want aggregate error for the failing cell")
	}
	if !strings.Contains(err.Error(), "cell 1") {
		t.Errorf("error does not identify the failing cell by index: %v", err)
	}
	if len(results) != len(cells) {
		t.Fatalf("returned %d results, want %d even on error", len(results), len(cells))
	}
	for i, cr := range results {
		if cr.Index != i {
			t.Errorf("results[%d].Index = %d; want positional indexing", i, cr.Index)
		}
		if cr.Spec.Label() != cells[i].Label() {
			t.Errorf("results[%d] holds spec %q, want %q", i, cr.Spec.Label(), cells[i].Label())
		}
	}
	if !results[0].Cached || results[0].Err != nil {
		t.Errorf("cell 0: cached=%v err=%v, want a clean store hit", results[0].Cached, results[0].Err)
	}
	if results[1].Err == nil || results[1].Result != nil {
		t.Error("cell 1: want a failure with nil result")
	}
	if results[2].Err != nil || results[2].Cached {
		t.Errorf("cell 2: err=%v cached=%v, want a clean live run", results[2].Err, results[2].Cached)
	}
}

// failingSaveStore misses every lookup and fails every save.
type failingSaveStore struct{}

func (failingSaveStore) Lookup(scenario.Spec) (*distsgd.Result, bool) { return nil, false }
func (failingSaveStore) Save(scenario.Spec, *distsgd.Result) error {
	return fmt.Errorf("disk full")
}

// TestRunCellsSurfacesStoreErrors checks that a failed write-through
// keeps the computed result but is folded into the aggregate error.
func TestRunCellsSurfacesStoreErrors(t *testing.T) {
	cells := []scenario.Spec{storeSpec()}
	results, err := (&scenario.Runner{Store: failingSaveStore{}}).RunCells(cells)
	if err == nil || !strings.Contains(err.Error(), "storing result") {
		t.Fatalf("aggregate error = %v, want a store write-through failure", err)
	}
	if results[0].Err != nil {
		t.Fatalf("cell error = %v, want nil (only persistence failed)", results[0].Err)
	}
	if results[0].Result == nil || results[0].StoreErr == nil {
		t.Fatal("want computed result with a recorded StoreErr")
	}
	if errors.Is(results[0].StoreErr, results[0].Err) && results[0].Err != nil {
		t.Fatal("StoreErr must stay separate from the cell error")
	}
}
