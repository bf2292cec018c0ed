package harness

// Monte-Carlo store coverage: table1 and ablation cells are pure
// functions of (partial spec, parameter string), so a configured
// scenario/store caches them like any distsgd cell. The warm-rerun
// test is the ROADMAP acceptance proof: a second run performs ZERO
// Monte-Carlo recomputation (witnessed by the store: every cell a hit,
// nothing saved — these rules run outside any Engine, so no distance
// count can see them) and reproduces the cold results exactly.

import (
	"io"
	"math"
	"testing"

	"krum/scenario/store"
)

// sameFloat compares result floats with NaN == NaN (the untracked
// selection-rate sentinel).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

func TestMonteCarloCellsWarmRerun(t *testing.T) {
	st := store.NewMemory()
	SetStore(st)
	defer SetStore(nil)

	coldT1, err := RunTable1(io.Discard, Quick, 10)
	if err != nil {
		t.Fatal(err)
	}
	coldE6, err := RunAblation(io.Discard, Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Entries != len(coldT1.Cells)+len(coldE6.Rows) {
		t.Fatalf("cold runs stored %d entries, want %d cells + %d rows",
			stats.Entries, len(coldT1.Cells), len(coldE6.Rows))
	}

	warmT1, err := RunTable1(io.Discard, Quick, 10)
	if err != nil {
		t.Fatal(err)
	}
	warmE6, err := RunAblation(io.Discard, Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hits := st.Stats().Hits - stats.Hits; hits != len(coldT1.Cells)+len(coldE6.Rows) {
		t.Errorf("warm rerun hit the store %d times, want every cell (%d)",
			hits, len(coldT1.Cells)+len(coldE6.Rows))
	}
	if saves := st.Stats().Saves - stats.Saves; saves != 0 {
		t.Errorf("warm rerun saved %d cells, want 0 (cells recomputed)", saves)
	}

	if len(warmT1.Cells) != len(coldT1.Cells) {
		t.Fatalf("warm table1 has %d cells, cold %d", len(warmT1.Cells), len(coldT1.Cells))
	}
	for i, cold := range coldT1.Cells {
		warm := warmT1.Cells[i]
		if warm.Attack != cold.Attack || warm.Rule != cold.Rule || !sameFloat(warm.ByzSelectedRate, cold.ByzSelectedRate) {
			t.Errorf("table1 cell %d: warm %+v != cold %+v", i, warm, cold)
		}
	}
	if len(warmE6.Rows) != len(coldE6.Rows) {
		t.Fatalf("warm ablation has %d rows, cold %d", len(warmE6.Rows), len(coldE6.Rows))
	}
	for i, cold := range coldE6.Rows {
		warm := warmE6.Rows[i]
		if warm.Rule != cold.Rule || !sameFloat(warm.CoordError, cold.CoordError) ||
			!sameFloat(warm.RestError, cold.RestError) || !sameFloat(warm.ByzSelectedRate, cold.ByzSelectedRate) {
			t.Errorf("ablation row %d: warm %+v != cold %+v", i, warm, cold)
		}
	}
}

// TestMonteCarloCellsSurviveReload pins that aux records round-trip
// through a store directory: a second process (a fresh OpenDir on the
// same directory) serves the same cells without recomputation.
func TestMonteCarloCellsSurviveReload(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	SetStore(st1)
	defer SetStore(nil)
	cold, err := RunAblation(io.Discard, Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if skipped := st2.Stats().SkippedRecords; skipped != 0 {
		t.Fatalf("reload skipped %d records", skipped)
	}
	SetStore(st2)
	warm, err := RunAblation(io.Discard, Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats(); got.Hits != len(cold.Rows) || got.Saves != 0 {
		t.Errorf("reloaded store: %d hits, %d saves, want %d hits and 0 saves (cells recomputed)", got.Hits, got.Saves, len(cold.Rows))
	}
	for i, c := range cold.Rows {
		w := warm.Rows[i]
		if w.Rule != c.Rule || !sameFloat(w.CoordError, c.CoordError) || !sameFloat(w.RestError, c.RestError) {
			t.Errorf("row %d: reloaded %+v != cold %+v", i, w, c)
		}
	}
}

// TestMonteCarloCellsAfterSetStoreNil pins that SetStore(nil) after a
// stored run detaches the store: the next runner holds a nil
// interface, not a typed nil it would call, and the next experiment
// runs without touching the old store.
func TestMonteCarloCellsAfterSetStoreNil(t *testing.T) {
	st := store.NewMemory()
	SetStore(st)
	if _, err := RunAblation(io.Discard, Quick, 3); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	SetStore(nil)
	if r := newRunner(); r.Store != nil {
		t.Fatalf("runner after SetStore(nil) holds store %#v, want a nil interface", r.Store)
	}
	if _, err := RunAblation(io.Discard, Quick, 3); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats(); after != before {
		t.Errorf("detached store moved: %s, was %s", after, before)
	}
}
