package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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
