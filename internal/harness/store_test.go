package harness

// Store coverage: only scenario cells are cached. The aggregation-level
// Monte-Carlo experiments leave a configured store untouched, a failed
// write-through still renders every computed cell, and SetStore(nil)
// detaches the store.

import (
	"crypto/sha256"
	"errors"
	"io"
	"strings"
	"testing"

	"krum/distsgd"
	"krum/scenario"
	"krum/scenario/store"
)

// errSaveFailed is what failingStore's Save returns.
var errSaveFailed = errors.New("save failed")

// failingStore misses every lookup and fails every write-through.
type failingStore struct{}

func (failingStore) Lookup(scenario.Spec) (*distsgd.Result, bool) { return nil, false }
func (failingStore) Save(scenario.Spec, *distsgd.Result) error    { return errSaveFailed }

// TestStoreFailureStillRenders: a Runner experiment whose only failure
// is its write-through renders every computed cell — byte for byte
// what TestRunFig4Shape pins — and then reports each failed save.
func TestStoreFailureStillRenders(t *testing.T) {
	SetStore(failingStore{})
	defer SetStore(nil)
	h := sha256.New()
	res, err := RunFig4(h, Quick, 6)
	if !errors.Is(err, errSaveFailed) {
		t.Fatalf("RunFig4 error %v, want the failed saves", err)
	}
	if got := strings.Count(err.Error(), "storing result"); got != 4 {
		t.Errorf("%d failed saves reported, want one per cell (4): %v", got, err)
	}
	if res == nil {
		t.Fatal("no result returned")
	}
	checkRendered(t, h, "f84809d3759a5eb00b91edb27df6d6a0518a6ed173ab37c7d2fe080a2bcfd95e")
}

// TestAggregationExperimentsCacheNothing: table1 and ablation are not
// scenario cells, so a configured store sees no lookup and holds no
// record after them.
func TestAggregationExperimentsCacheNothing(t *testing.T) {
	st := store.NewMemory()
	SetStore(st)
	defer SetStore(nil)
	if _, err := RunTable1(io.Discard, Quick, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAblation(io.Discard, Quick, 5); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got != (store.Stats{}) {
		t.Errorf("store touched: %s", got)
	}
}

// TestSetStoreNilDetaches pins that SetStore(nil) after a stored run
// detaches the store: the next experiment runs without touching it.
func TestSetStoreNilDetaches(t *testing.T) {
	st := store.NewMemory()
	SetStore(st)
	if _, err := RunFig4(io.Discard, Quick, 3); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if before.Saves == 0 {
		t.Fatalf("the stored run saved nothing: %s", before)
	}
	SetStore(nil)
	if _, err := RunFig4(io.Discard, Quick, 3); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats(); after != before {
		t.Errorf("detached store moved: %s, was %s", after, before)
	}
}
