package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krum/distsgd"
	"krum/internal/vec"
	"krum/scenario"
)

// quickSpec is a seconds-scale cell: tight Gaussian mixture, softmax
// classifier, Krum under a Gaussian attack.
func quickSpec() scenario.Spec {
	return scenario.Spec{
		Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
		Rule:      "krum",
		Attack:    "gaussian(sigma=200)",
		Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
		N:         9,
		F:         2,
		Rounds:    12,
		BatchSize: 8,
		Seed:      11,
		EvalEvery: 6,
		EvalBatch: 64,
	}
}

// mustRun computes a cell without any store.
func mustRun(t *testing.T, s scenario.Spec) *distsgd.Result {
	t.Helper()
	cr := scenario.RunCell(nil, 0, s)
	if cr.Err != nil {
		t.Fatal(cr.Err)
	}
	return cr.Result
}

// encode renders a result in the stable store encoding, the level at
// which byte-identity is asserted.
func encode(t *testing.T, r *distsgd.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestKeyCanonicalization(t *testing.T) {
	base := quickSpec()

	variants := []scenario.Spec{base, base, base, base}
	variants[1].Rule = "krum(f=2)"                              // explicit default
	variants[1].Attack = "Gaussian(sigma=200)"                  // case-insensitive name
	variants[2].Name = "some label"                             // cosmetic
	variants[3].Workload = " gmm(k=3,dim=6,radius=4,sigma=0.5)" // whitespace

	want, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		got, err := Key(v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got != want {
			t.Errorf("variant %d key %s, want %s", i, got, want)
		}
	}

	// Every result-affecting field must change the key.
	mutations := map[string]func(*scenario.Spec){
		"rule":      func(s *scenario.Spec) { s.Rule = "average" },
		"attack":    func(s *scenario.Spec) { s.Attack = "signflip" },
		"schedule":  func(s *scenario.Spec) { s.Schedule = "const(gamma=0.1)" },
		"workload":  func(s *scenario.Spec) { s.Workload = "gmm(k=2,dim=6,radius=4,sigma=0.5)" },
		"f":         func(s *scenario.Spec) { s.F = 1 },
		"n":         func(s *scenario.Spec) { s.N = 11 },
		"rounds":    func(s *scenario.Spec) { s.Rounds = 13 },
		"batch":     func(s *scenario.Spec) { s.BatchSize = 9 },
		"seed":      func(s *scenario.Spec) { s.Seed = 12 },
		"evalevery": func(s *scenario.Spec) { s.EvalEvery = 3 },
		"evalbatch": func(s *scenario.Spec) { s.EvalBatch = 65 },
		"tracksel":  func(s *scenario.Spec) { s.TrackSelection = true },
		"increment": func(s *scenario.Spec) { s.Incremental = true },
	}
	for name, mutate := range mutations {
		v := base
		mutate(&v)
		got, err := Key(v)
		if err != nil {
			t.Fatalf("mutation %s: %v", name, err)
		}
		if got == want {
			t.Errorf("mutation %s did not change the key", name)
		}
	}

	// "" and "none" attacks are the same run, hence the same key.
	noAtk := base
	noAtk.Attack = ""
	noneAtk := base
	noneAtk.Attack = "none"
	kEmpty, err1 := Key(noAtk)
	kNone, err2 := Key(noneAtk)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if kEmpty != kNone {
		t.Errorf("empty attack key %s != none attack key %s", kEmpty, kNone)
	}
}

// TestStoreHitByteIdenticalZeroRebuilds is the tentpole's acceptance
// check at package level: a warm run serves the stored result without
// building a single distance matrix, and the served result is
// byte-identical (stable encoding) to the cold computation.
func TestStoreHitByteIdenticalZeroRebuilds(t *testing.T) {
	st := NewMemory()
	s := quickSpec()

	cold := scenario.RunCell(st, 0, s)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.Cached {
		t.Fatal("first run reported cached")
	}

	builds := vec.MatrixBuildCount()
	rows := vec.MatrixRowUpdateCount()
	warm := scenario.RunCell(st, 0, s)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !warm.Cached {
		t.Fatal("second run did not hit the store")
	}
	if d := vec.MatrixBuildCount() - builds; d != 0 {
		t.Errorf("warm run built %d distance matrices, want 0", d)
	}
	if d := vec.MatrixRowUpdateCount() - rows; d != 0 {
		t.Errorf("warm run performed %d row updates, want 0", d)
	}
	if encode(t, warm.Result) != encode(t, cold.Result) {
		t.Error("cached result not byte-identical to cold run")
	}

	stats := st.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Saves != 1 || stats.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 save, 1 entry", stats)
	}
}

// TestStorePersistsAcrossOpen writes through a file-backed store, then
// reopens it and expects a hit — the resume path krum-scenariod and
// krum-experiments -store rely on.
func TestStorePersistsAcrossOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSpec()
	cold := scenario.RunCell(st, 0, s)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Entries; got != 1 {
		t.Fatalf("reloaded %d entries, want 1", got)
	}
	warm := scenario.RunCell(st2, 0, s)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !warm.Cached {
		t.Fatal("reopened store missed")
	}
	if encode(t, warm.Result) != encode(t, cold.Result) {
		t.Error("reloaded result not byte-identical")
	}
}

// TestStoreTruncatedTail tears the final record mid-line (the only
// corruption an append-only writer can produce) and expects Open to
// drop exactly that record, truncate the file, and keep appends clean.
func TestStoreTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a := quickSpec()
	b := quickSpec()
	b.Seed = 99
	if cr := scenario.RunCell(st, 0, a); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	if cr := scenario.RunCell(st, 1, b); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	st.Close()

	// Tear the last line in half.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	if len(lines) < 3 || lines[2] != "" {
		t.Fatalf("expected 2 newline-terminated records, got %d segments", len(lines))
	}
	torn := lines[0] + lines[1][:len(lines[1])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	stats := st2.Stats()
	if stats.Entries != 1 {
		t.Errorf("entries = %d, want 1 (torn record dropped)", stats.Entries)
	}
	if stats.DroppedTailBytes == 0 {
		t.Error("DroppedTailBytes = 0, want the torn fragment size")
	}
	if _, ok := st2.Lookup(a); !ok {
		t.Error("intact record lost")
	}
	if _, ok := st2.Lookup(b); ok {
		t.Error("torn record served")
	}
	// The torn cell recomputes and re-persists cleanly.
	if cr := scenario.RunCell(st2, 1, b); cr.Err != nil || cr.Cached {
		t.Fatalf("recompute after tear: err=%v cached=%v", cr.Err, cr.Cached)
	}
	st2.Close()

	st3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Stats().Entries; got != 2 {
		t.Errorf("after repair reload: entries = %d, want 2", got)
	}
	if got := st3.Stats().DroppedTailBytes; got != 0 {
		t.Errorf("after repair reload: dropped tail %d bytes, want 0", got)
	}
}

// TestStoreDuplicateKeysLastWriteWins appends two records under the
// same key and expects the later one to be served.
func TestStoreDuplicateKeysLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSpec()
	first := mustRun(t, s)
	if err := st.Save(s, first); err != nil {
		t.Fatal(err)
	}
	// Second write under the same key with a recognizably different
	// (synthetic) payload.
	second := &distsgd.Result{
		History:           []distsgd.RoundStats{{Round: 0, TrainLoss: 123.5}},
		FinalParams:       []float64{1, 2, 3},
		FinalTestAccuracy: 0.5,
		FinalTestLoss:     0.25,
	}
	if err := st.Save(s, second); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Entries; got != 1 {
		t.Fatalf("entries = %d, want 1 (duplicates collapse)", got)
	}
	got, ok := st2.Lookup(s)
	if !ok {
		t.Fatal("duplicate-key record missed")
	}
	if encode(t, got) != encode(t, second) {
		t.Error("lookup served the first write; want last-write-wins")
	}
}

// TestStoreHashMismatchRecomputes edits a stored record's spec without
// updating its key — the "spec changed under the hash" corruption —
// and expects the record to be dropped at load so the cell recomputes
// instead of being stale-served.
func TestStoreHashMismatchRecomputes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSpec()
	if cr := scenario.RunCell(st, 0, s); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	st.Close()

	// Hand-edit the record: double the round budget but keep the key.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	var spec scenario.Spec
	if err := json.Unmarshal(rec["spec"], &spec); err != nil {
		t.Fatal(err)
	}
	spec.Rounds *= 2
	edited, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec["spec"] = edited
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.Entries != 0 || stats.SkippedRecords != 1 {
		t.Errorf("stats = %+v, want 0 entries and 1 skipped record", stats)
	}
	edited2 := s
	edited2.Rounds *= 2
	for _, probe := range []scenario.Spec{s, edited2} {
		if _, ok := st2.Lookup(probe); ok {
			t.Errorf("tampered record served for %+v", probe.Label())
		}
	}
	// Both specs recompute from scratch.
	if cr := scenario.RunCell(st2, 0, s); cr.Err != nil || cr.Cached {
		t.Fatalf("recompute original: err=%v cached=%v", cr.Err, cr.Cached)
	}
}

// TestStoreSkipsMalformedInteriorLine checks that garbage between
// intact records is counted and skipped rather than failing the load
// or being served.
func TestStoreSkipsMalformedInteriorLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSpec()
	if cr := scenario.RunCell(st, 0, s); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	st.Close()

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte("this is not json\n"), blob...)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.Entries != 1 || stats.SkippedRecords != 1 {
		t.Errorf("stats = %+v, want 1 entry and 1 skipped record", stats)
	}
	if _, ok := st2.Lookup(s); !ok {
		t.Error("intact record lost behind a malformed line")
	}
}

// TestOpenRejectsEmptyPath pins the NewMemory/Open split.
func TestOpenRejectsEmptyPath(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded; want an error directing to NewMemory")
	}
}
