package main

import (
	"testing"

	"krum/scenario/store"
)

// Consecutive grids of one client must overlap by exactly 36 of 48
// store keys, and different clients must share none — the counts the
// run-time check holds /store and /fleet to.
func TestOverlapGridHitAndMissCounts(t *testing.T) {
	keys := func(client, k int) map[string]bool {
		out := map[string]bool{}
		for _, cell := range overlapGrid(12345, client, k).Cells() {
			key, err := store.Key(cell)
			if err != nil {
				t.Fatal(err)
			}
			out[key] = true
		}
		if len(out) != gridCells || gridCells != 48 {
			t.Fatalf("grid has %d distinct keys, want 48", len(out))
		}
		return out
	}
	shared := func(a, b map[string]bool) (n int) {
		for k := range a {
			if b[k] {
				n++
			}
		}
		return n
	}
	prev := keys(0, 0)
	stored := keys(0, 0)
	for k := 1; k < 6; k++ {
		cur := keys(0, k)
		if hits := shared(cur, prev); hits != 36 {
			t.Errorf("grid %d shares %d cells with its predecessor, want 36", k, hits)
		}
		// Against everything stored so far the count is the same: the
		// overlap is with the predecessor only.
		if hits := shared(cur, stored); hits != 36 || gridCells-hits != 12 {
			t.Errorf("grid %d: %d hits / %d misses against the store, want 36 / 12", k, hits, gridCells-hits)
		}
		for key := range cur {
			stored[key] = true
		}
		prev = cur
	}
	if n := shared(keys(1, 0), stored) + shared(keys(warmupClient, 0), stored); n != 0 {
		t.Errorf("another client's grid shares %d cells with client 0", n)
	}
}
