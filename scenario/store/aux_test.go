package store_test

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"krum/scenario"
	"krum/scenario/store"
)

// partialSpec is a table1-style Monte-Carlo identity: rule + attack +
// shape, no workload/schedule/rounds.
func partialSpec() scenario.Spec {
	return scenario.Spec{
		Name:   "table1: some label",
		Rule:   "krum",
		Attack: "Gaussian(sigma=200)",
		N:      13,
		F:      3,
		Seed:   42,
	}
}

// TestAuxKeyCollapsesSpellingVariants pins the canonicalization
// contract for partial specs: registry spelling variants and cosmetic
// fields do not change the key, while kind, params and any
// result-affecting field do.
func TestAuxKeyCollapsesSpellingVariants(t *testing.T) {
	base, err := store.KeyAux("table1", partialSpec(), "d=12,trials=200")
	if err != nil {
		t.Fatal(err)
	}

	same := partialSpec()
	same.Name = "a different label"
	same.Rule = "krum(f=3)" // the shape default, spelled out
	same.Attack = "gaussian(sigma=200)"
	if k, err := store.KeyAux("table1", same, "d=12,trials=200"); err != nil || k != base {
		t.Errorf("spelling variant changed the key: %v (%v)", k != base, err)
	}

	for name, mutate := range map[string]func(*scenario.Spec, *string, *string){
		"kind":   func(s *scenario.Spec, kind, params *string) { *kind = "ablation" },
		"params": func(s *scenario.Spec, kind, params *string) { *params = "d=12,trials=2000" },
		"seed":   func(s *scenario.Spec, kind, params *string) { s.Seed = 43 },
		"rule":   func(s *scenario.Spec, kind, params *string) { s.Rule = "medoid" },
		"attack": func(s *scenario.Spec, kind, params *string) { s.Attack = "signflip" },
		"f":      func(s *scenario.Spec, kind, params *string) { s.F = 2 },
	} {
		spec, kind, params := partialSpec(), "table1", "d=12,trials=200"
		mutate(&spec, &kind, &params)
		k, err := store.KeyAux(kind, spec, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}

	if _, err := store.KeyAux("", partialSpec(), "p"); err == nil {
		t.Error("empty kind accepted")
	}
	if _, err := store.KeyAux("table1", scenario.Spec{Rule: "no-such-rule", N: 5, F: 1}, "p"); err == nil {
		t.Error("unparseable rule accepted")
	}
}

// TestCanonicalAuxIdempotent pins Canonical∘Canonical ≡ Canonical on a
// partial spec — the property aux record reloads rely on.
func TestCanonicalAuxIdempotent(t *testing.T) {
	once, err := partialSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if once != twice {
		t.Fatalf("not a fixed point: %+v → %+v", once, twice)
	}
	if once.Name != "" || once.Attack != "gaussian(sigma=200)" || once.Workload != "" || once.Schedule != "" {
		t.Errorf("unexpected canonical form: %+v", once)
	}
}

// TestAuxRecordsPersistAndReload pins the round trip through a store
// directory: aux and cell records share one JSONL tail, reload cleanly, and a tampered
// aux record is skipped (never served) while intact neighbours
// survive.
func TestAuxRecordsPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tail.jsonl"
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"byz_selected_rate":0.25}`)
	if err := st.SaveAux("table1", partialSpec(), "d=12,trials=200", payload); err != nil {
		t.Fatal(err)
	}
	other := json.RawMessage(`{"byz_selected_rate":1}`)
	if err := st.SaveAux("ablation", partialSpec(), "d=60,coord=7,trials=300", other); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Stats(); got.Entries != 2 || got.SkippedRecords != 0 {
		t.Fatalf("reload stats %+v, want 2 clean entries", got)
	}
	raw, ok := re.LookupAux("table1", partialSpec(), "d=12,trials=200")
	if !ok || string(raw) != string(payload) {
		t.Fatalf("aux lookup after reload: %q, %v", raw, ok)
	}
	if _, ok := re.LookupAux("table1", partialSpec(), "d=12,trials=2000"); ok {
		t.Error("different params served a stored record")
	}
	if _, ok := re.LookupAux("ablation", partialSpec(), "d=12,trials=200"); ok {
		t.Error("different kind served a stored record")
	}
	// The families never cross: the cell-record interface must not see
	// aux records even for the same spec.
	if _, ok := re.Lookup(partialSpec()); ok {
		t.Error("ResultStore.Lookup served an aux record")
	}
	re.Close()

	// Tamper with the first record's params: its key no longer
	// re-derives, so it must be skipped; the second record survives.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(blob), "d=12,trials=200", "d=12,trials=999", 1)
	if tampered == string(blob) {
		t.Fatal("tampering had no effect; fixture drifted")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	re2, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Stats(); got.Entries != 1 || got.SkippedRecords != 1 {
		t.Fatalf("tampered reload stats %+v, want 1 entry + 1 skipped", got)
	}
	if _, ok := re2.LookupAux("table1", partialSpec(), "d=12,trials=200"); ok {
		t.Error("tampered record served")
	}
	if _, ok := re2.LookupAux("ablation", partialSpec(), "d=60,coord=7,trials=300"); !ok {
		t.Error("intact neighbour lost")
	}

	if err := re2.SaveAux("x", partialSpec(), "p", json.RawMessage(`not json`)); err == nil {
		t.Error("invalid JSON payload accepted")
	}
}
