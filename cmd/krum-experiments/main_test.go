package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"krum/distsgd"
	"krum/scenario"
)

// writeConfig writes a -config file and returns its path.
func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI runs the command body and returns its exit code and output.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestConfigMatchesFlags pins that a config naming an experiment writes
// exactly what the flags naming it write (the config's defaults are the
// flags' defaults; its trailing newline is not trailing content).
func TestConfigMatchesFlags(t *testing.T) {
	code, fromFlags, stderr := runCLI("-exp", "table1", "-scale", "quick", "-seed", "42")
	if code != 0 {
		t.Fatalf("flags: exit %d: %s", code, stderr)
	}
	code, fromConfig, stderr := runCLI("-config", writeConfig(t, `{"experiments":["table1"]}`+"\n"))
	if code != 0 {
		t.Fatalf("config: exit %d: %s", code, stderr)
	}
	if !strings.Contains(fromFlags, "T1 — Byzantine-selection rate") {
		t.Fatalf("table1 output missing its section:\n%s", fromFlags)
	}
	if fromFlags != fromConfig {
		t.Errorf("config output differs from flag output:\n--- flags\n%s\n--- config\n%s", fromFlags, fromConfig)
	}
}

func TestBadInvocationsExit2(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown experiment", []string{"-exp", "nosuch"}},
		{"unknown experiment in config", []string{"-config", writeConfig(t, `{"experiments":["table1","nosuch"]}`)}},
		{"unknown scale", []string{"-exp", "table1", "-scale", "huge"}},
		{"unknown scale in config", []string{"-config", writeConfig(t, `{"experiments":["table1"],"scale":"huge"}`)}},
		{"unknown config field", []string{"-config", writeConfig(t, `{"experiments":["table1"],"bogus":1}`)}},
		{"trailing content", []string{"-config", writeConfig(t, `{"experiments":["table1"]} trailing`)}},
		{"second JSON value", []string{"-config", writeConfig(t, `{"experiments":["table1"]}{}`)}},
		{"empty config", []string{"-config", writeConfig(t, `{}`)}},
		{"unknown flag", []string{"-nosuch"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(c.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("ran something before refusing:\n%s", stdout)
			}
			if stderr == "" {
				t.Error("no diagnostic on stderr")
			}
		})
	}
}

// TestPaddedAllSelectsEveryExperiment: "all" counts however it is
// padded, as every experiment name does.
func TestPaddedAllSelectsEveryExperiment(t *testing.T) {
	exps := experiments()
	var all []string
	for _, e := range exps {
		all = append(all, e.name)
	}
	for _, exp := range []string{"all", "fig2,all", "fig2, all", " all "} {
		if got := selected(exp, exps); !slices.Equal(got, all) {
			t.Errorf("-exp %q selects %v, want all %d experiments", exp, got, len(all))
		}
	}
	if got := selected("table1, fig2", exps); !slices.Equal(got, []string{"fig2", "table1"}) {
		t.Errorf(`-exp "table1, fig2" selects %v, want [fig2 table1] (registry order)`, got)
	}
}

func TestListNamesEveryExperiment(t *testing.T) {
	code, stdout, stderr := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, e := range experiments() {
		if !strings.Contains(stdout, "  "+e.name+" ") {
			t.Errorf("-list does not name %s:\n%s", e.name, stdout)
		}
	}
}

// ruleSpellingsMatrix is a matrix of two rules at their defaults and the
// same two with f set away from the cell's f = 3: four different rules,
// so four store entries.
const ruleSpellingsMatrix = `{"matrix":{"base":{"workload":"gmm(k=3,dim=6)","schedule":"const(gamma=0.1)",
"n":15,"f":3,"rounds":10,"batch_size":8,"seed":5,"eval_every":10,"eval_batch":64},
"rules":["krum","krum(f=5)","multikrum(m=5)","multikrum(f=1,m=5)"]}}`

// TestMatrixWithStore drives the -config matrix path through a store: a
// cold run computes and saves every cell, a warm rerun serves every cell
// from the store and prints the same summary table, and an invalid
// matrix is refused with exit status 2.
func TestMatrixWithStore(t *testing.T) {
	config := writeConfig(t, ruleSpellingsMatrix)
	path := filepath.Join(t.TempDir(), "cells")
	summary := func(stdout string) (table string, cached int) {
		var kept []string
		for _, line := range strings.Split(stdout, "\n") {
			switch {
			case strings.HasPrefix(line, "["):
				if strings.HasSuffix(line, "(cached)") {
					cached++
				}
			case !strings.HasPrefix(line, "result store "):
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n"), cached
	}

	code, cold, stderr := runCLI("-config", config, "-store", path)
	if code != 0 {
		t.Fatalf("cold run: exit %d: %s", code, stderr)
	}
	coldTable, cached := summary(cold)
	if cached != 0 || !strings.Contains(cold, ": 4 entries, 0 hits, 4 misses, 0 flight waits, 4 saves,") {
		t.Errorf("cold run: %d cells cached, want 0 cached and 4 saves:\n%s", cached, cold)
	}

	code, warm, stderr := runCLI("-config", config, "-store", path)
	if code != 0 {
		t.Fatalf("warm run: exit %d: %s", code, stderr)
	}
	warmTable, cached := summary(warm)
	if cached != 4 || !strings.Contains(warm, ": 4 entries, 4 hits, 0 misses,") {
		t.Errorf("warm run: %d cells cached, want all 4 served by the store:\n%s", cached, warm)
	}
	if warmTable != coldTable {
		t.Errorf("warm summary differs from cold:\n--- cold\n%s\n--- warm\n%s", coldTable, warmTable)
	}

	invalid := strings.Replace(ruleSpellingsMatrix, `"krum(f=5)"`, `"krum(f=oops)"`, 1)
	if code, _, stderr := runCLI("-config", writeConfig(t, invalid)); code != 2 || stderr == "" {
		t.Errorf("invalid matrix: exit %d (stderr %q), want 2 with a diagnostic", code, stderr)
	}
}

// failingStore misses every lookup and fails every write-through.
type failingStore struct{}

func (failingStore) Lookup(scenario.Spec) (*distsgd.Result, bool) { return nil, false }
func (failingStore) Save(scenario.Spec, *distsgd.Result) error {
	return errors.New("save failed")
}

// TestMatrixStoreFailureStillRendersTable: a matrix whose only failures
// are its write-throughs prints its whole summary table — the same one
// a storeless run prints — then reports each failed save and exits 1.
func TestMatrixStoreFailureStillRendersTable(t *testing.T) {
	cfg, code := readConfig(writeConfig(t, ruleSpellingsMatrix), io.Discard)
	if code != 0 {
		t.Fatalf("config refused: exit %d", code)
	}
	var want, got, stderr bytes.Buffer
	if code := runMatrix(*cfg.Matrix, 2, nil, &want, &stderr); code != 0 {
		t.Fatalf("storeless run: exit %d: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := runMatrix(*cfg.Matrix, 2, failingStore{}, &got, &stderr); code != 1 {
		t.Errorf("failed saves: exit %d, want 1", code)
	}
	table := func(out string) string { return out[strings.Index(out, "\nworkload"):] }
	if !strings.Contains(want.String(), "\nworkload") || table(got.String()) != table(want.String()) {
		t.Errorf("summary table differs from the storeless run's:\n--- storeless\n%s\n--- failing store\n%s", want.String(), got.String())
	}
	if n := strings.Count(stderr.String(), "save failed"); n != 4 {
		t.Errorf("%d failed saves reported, want one per cell (4):\n%s", n, stderr.String())
	}
}

// TestFileStoreRefusedWithMigration pins that a store path naming a
// regular file — a store from before stores were directories — is
// refused before anything runs, with the command that migrates it.
func TestFileStoreRefusedWithMigration(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cells.jsonl")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	want := "store " + file + " is a file; stores are directories now: mkdir D && mv " + file + " D/tail.jsonl\n"
	cases := []struct {
		name string
		args []string
	}{
		{"flag", []string{"-exp", "table1", "-store", file}},
		{"config key", []string{"-config", writeConfig(t, `{"experiments":["table1"],"store":"`+file+`"}`)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(c.args...)
			if code != 2 || stdout != "" || stderr != want {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2, no output and %q", code, stdout, stderr, want)
			}
		})
	}
}

// TestMigratedFileStoreRerunsWarm follows the migration message: the
// lines a store file holds, moved to a directory's tail.jsonl, serve
// every cell of a rerun — no key or record format changed.
func TestMigratedFileStoreRerunsWarm(t *testing.T) {
	config := writeConfig(t, ruleSpellingsMatrix)
	base := t.TempDir()
	cold := filepath.Join(base, "cold")
	if code, _, stderr := runCLI("-config", config, "-store", cold); code != 0 {
		t.Fatalf("cold run: exit %d: %s", code, stderr)
	}
	file := filepath.Join(base, "cells.jsonl")
	if err := os.Rename(filepath.Join(cold, "tail.jsonl"), file); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI("-config", config, "-store", file); code != 2 {
		t.Fatalf("store file accepted: exit %d, want 2", code)
	}

	migrated := filepath.Join(base, "migrated")
	if err := os.Mkdir(migrated, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(file, filepath.Join(migrated, "tail.jsonl")); err != nil {
		t.Fatal(err)
	}
	code, warm, stderr := runCLI("-config", config, "-store", migrated)
	if code != 0 {
		t.Fatalf("migrated rerun: exit %d: %s", code, stderr)
	}
	if !strings.Contains(warm, ": 4 entries, 4 hits, 0 misses, 0 flight waits, 0 saves, 0 skipped,") {
		t.Errorf("migrated rerun did not serve every cell from the moved file:\n%s", warm)
	}
}
