// Command krum-experiments regenerates every table and figure of the
// reproduction (see EXPERIMENTS.md at the repository root for the
// experiment → paper-claim → command index):
//
//	krum-experiments -exp all -scale quick
//	krum-experiments -exp fig4 -scale full -seed 7
//
// Experiments: lemma31, fig2, lemma41, prop42, prop43, fig4, fig5,
// fig6, fig7, table1, ablation, noniid, staleness, all.
//
// A JSON config file can drive the same experiments plus an arbitrary
// scenario matrix (rules × attacks × f-values × seeds, every axis a
// registry spec string) executed on a concurrent runner:
//
//	krum-experiments -config examples/matrix.json
//
// Config schema: {"experiments": ["table1"], "scale": "quick",
// "seed": 42, "workers": 4, "store": "cells", "matrix": {...}} —
// the matrix object is a scenario.Matrix; run with -list to see every
// registered rule, attack, schedule, workload and arrival spec.
//
// With -store (or the "store" config key) every scenario cell — the
// figure-experiment grids, E7, E8 and config matrices — is checked
// against a content-addressed persistent result store directory before
// running and written through after (see scenario/store): re-running an
// experiment with a warm store replays its cells as cache hits, so
// overlapping grids (e.g. -exp all after -exp fig4) only pay for
// uncovered cells. The directory has the layout krum-scenariod
// -store-dir writes, so the two can share one. A store file from before
// directories keeps its records as the directory's tail:
//
//	mkdir cells && mv cells.jsonl cells/tail.jsonl
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"krum"
	"krum/attack"
	"krum/internal/harness"
	"krum/internal/metrics"
	"krum/scenario"
	"krum/scenario/store"
	"krum/workload"
)

// experiment binds a name to its regenerator.
type experiment struct {
	name string
	desc string
	run  func(w io.Writer, scale harness.Scale, seed uint64) error
}

// wrap adapts a typed harness entry point.
func wrap[T any](f func(io.Writer, harness.Scale, uint64) (T, error)) func(io.Writer, harness.Scale, uint64) error {
	return func(w io.Writer, s harness.Scale, seed uint64) error {
		_, err := f(w, s, seed)
		return err
	}
}

func experiments() []experiment {
	return []experiment{
		{name: "lemma31", desc: "E1: one Byzantine worker controls any linear rule", run: wrap(harness.RunLemma31)},
		{name: "fig2", desc: "E2: medoid collusion vs Krum", run: wrap(harness.RunFig2)},
		{name: "lemma41", desc: "E3: O(n²·d) cost scaling", run: wrap(harness.RunLemma41)},
		{name: "prop42", desc: "E4: (α,f)-Byzantine resilience Monte Carlo", run: wrap(harness.RunProp42)},
		{name: "prop43", desc: "E5: convergence to the flat basin under attack", run: wrap(harness.RunProp43)},
		{name: "fig4", desc: "F4: Gaussian attack accuracy curves", run: wrap(harness.RunFig4)},
		{name: "fig5", desc: "F5: omniscient attack accuracy curves", run: wrap(harness.RunFig5)},
		{name: "fig6", desc: "F6: Multi-Krum trade-off", run: wrap(harness.RunFig6)},
		{name: "fig7", desc: "F7: cost of resilience (mini-batch sweep)", run: wrap(harness.RunFig7)},
		{name: "table1", desc: "T1: Byzantine-selection rate matrix", run: wrap(harness.RunTable1)},
		{name: "ablation", desc: "E6: hidden-coordinate attack, Krum vs Bulyan", run: wrap(harness.RunAblation)},
		{name: "noniid", desc: "E7: label-skewed honest workers (i.i.d. assumption violated)", run: wrap(harness.RunNonIID)},
		{name: "staleness", desc: "E8: bounded-staleness asynchronous arrivals sweep (Kardam-style)", run: wrap(harness.RunStaleness)},
	}
}

// fileConfig is the -config JSON schema, and what the flags build when
// there is no config file: either way runConfig runs it, so a config
// file reproduces a flag-driven invocation byte for byte. The optional
// matrix then runs on the concurrent scenario runner.
type fileConfig struct {
	// Experiments names harness experiments to run in order.
	Experiments []string `json:"experiments,omitempty"`
	// Scale is "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Seed is the master seed (default 42, matching the flag).
	Seed *uint64 `json:"seed,omitempty"`
	// Workers bounds matrix-cell concurrency (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Store is an optional result-store directory (same as -store; the
	// flag wins when both are given).
	Store string `json:"store,omitempty"`
	// Matrix is an optional free-form scenario grid.
	Matrix *scenario.Matrix `json:"matrix,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main (exit-once rule).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("krum-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "experiment to run (or 'all')")
	scaleFlag := fs.String("scale", "quick", "quick | full")
	seedFlag := fs.Uint64("seed", 42, "master random seed")
	listFlag := fs.Bool("list", false, "list experiments and registry specs, then exit")
	configFlag := fs.String("config", "", "JSON scenario config (experiments + matrix; see EXPERIMENTS.md); overrides -exp/-scale/-seed")
	storeFlag := fs.String("store", "", "result-store directory: scenario cells (figure grids, config matrices) are served from it when present and written through when computed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package already printed the error and usage
	}

	exps := experiments()
	if *listFlag {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range exps {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.name, e.desc)
		}
		// Generated from the registries, so this list can never drift
		// from the implemented set.
		fmt.Fprintln(stdout, "\nregistry specs (usable in -config matrix files):")
		fmt.Fprintf(stdout, "  rules:     %s\n", krum.RuleUsage())
		fmt.Fprintf(stdout, "  attacks:   %s\n", attack.Usage())
		fmt.Fprintf(stdout, "  schedules: %s\n", krum.ScheduleUsage())
		fmt.Fprintf(stdout, "  workloads: %s\n", workload.Usage())
		fmt.Fprintf(stdout, "  arrivals:  %s\n", krum.ArrivalUsage())
		return 0
	}

	var cfg fileConfig
	if *configFlag != "" {
		var code int
		if cfg, code = readConfig(*configFlag, stderr); code != 0 {
			return code
		}
	} else {
		cfg = fileConfig{Experiments: selected(*expFlag, exps), Scale: *scaleFlag, Seed: seedFlag}
		if len(cfg.Experiments) == 0 {
			fmt.Fprintf(stderr, "no experiment matched %q; use -list\n", *expFlag)
			return 2
		}
	}
	if *storeFlag != "" {
		cfg.Store = *storeFlag
	}
	return runConfig(cfg, exps, stdout, stderr)
}

// selected expands a comma-separated -exp value into experiment names in
// registry order; "all" selects every experiment. Unknown names match
// nothing.
func selected(exp string, exps []experiment) []string {
	want := strings.Split(exp, ",")
	for i := range want {
		want[i] = strings.TrimSpace(want[i])
	}
	var names []string
	for _, e := range exps {
		if slices.Contains(want, "all") || slices.Contains(want, e.name) {
			names = append(names, e.name)
		}
	}
	return names
}

// readConfig decodes a -config file strictly: an unknown field, or
// anything but whitespace after the JSON object, is an error.
func readConfig(path string, stderr io.Writer) (fileConfig, int) {
	var cfg fileConfig
	data, err := os.ReadFile(path)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		err = dec.Decode(&cfg)
		if _, trailing := dec.Token(); err == nil && trailing != io.EOF {
			err = errors.New("trailing content after the JSON object")
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "config %s: %v\n", path, err)
		return cfg, 2
	}
	return cfg, 0
}

// runConfig runs the named experiments in order, then the optional
// matrix on the concurrent runner, with every scenario cell going
// through the configured result store.
func runConfig(cfg fileConfig, exps []experiment, stdout, stderr io.Writer) int {
	if len(cfg.Experiments) == 0 && cfg.Matrix == nil {
		fmt.Fprintln(stderr, "nothing to run (no experiments, no matrix)")
		return 2
	}
	scale, ok := map[string]harness.Scale{"": harness.Quick, "quick": harness.Quick, "full": harness.Full}[cfg.Scale]
	if !ok {
		fmt.Fprintf(stderr, "unknown scale %q (quick|full)\n", cfg.Scale)
		return 2
	}
	seed := uint64(42)
	if cfg.Seed != nil {
		seed = *cfg.Seed
	}
	runs := make([]experiment, len(cfg.Experiments))
	for i, name := range cfg.Experiments {
		j := slices.IndexFunc(exps, func(e experiment) bool { return e.name == name })
		if j < 0 {
			fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", name)
			return 2
		}
		runs[i] = exps[j]
	}

	var cells scenario.ResultStore // a nil interface unless a store is configured
	if cfg.Store != "" {
		info, err := os.Stat(cfg.Store)
		if err == nil && info.Mode().IsRegular() {
			fmt.Fprintf(stderr, "store %[1]s is a file; stores are directories now: mkdir D && mv %[1]s D/tail.jsonl\n", cfg.Store)
			return 2
		}
		st, err := store.OpenDir(cfg.Store)
		if err != nil {
			fmt.Fprintf(stderr, "store: %v\n", err)
			return 2
		}
		cells = st
		harness.SetStore(st)
		// The closing line reports the session's cache economics.
		defer func() {
			fmt.Fprintf(stdout, "\nresult store %s: %s\n", cfg.Store, st.Stats())
			harness.SetStore(nil)
			st.Close()
		}()
	}

	for _, e := range runs {
		if err := e.run(stdout, scale, seed); err != nil {
			fmt.Fprintf(stderr, "experiment %s: %v\n", e.name, err)
			return 1
		}
	}
	if cfg.Matrix != nil {
		return runMatrix(*cfg.Matrix, cfg.Workers, cells, stdout, stderr)
	}
	return 0
}

// runMatrix validates and executes a scenario matrix, streaming per-cell
// progress and rendering a deterministic summary table. When st is
// non-nil, cells already in the store are served from it (marked
// "cached" in the stream) and fresh cells are written through. A failed
// cell exits 1 before the table; a failed write-through only after it,
// since the cell's result is still valid.
func runMatrix(m scenario.Matrix, workers int, st scenario.ResultStore, stdout, stderr io.Writer) int {
	if err := m.Validate(); err != nil {
		fmt.Fprintf(stderr, "matrix: %v\n", err)
		return 2
	}
	total := m.Size()
	fmt.Fprintf(stdout, "\n===== scenario matrix — %d cells =====\n", total)
	done := 0
	runner := &scenario.Runner{
		Workers: workers,
		Store:   st,
		OnCell: func(cr scenario.CellResult) {
			done++
			status := "error"
			if cr.Err == nil {
				switch {
				case cr.Result.Diverged:
					status = fmt.Sprintf("DIVERGED at round %d", cr.Result.DivergedRound)
				case math.IsNaN(cr.Result.FinalTestAccuracy):
					status = "done (no eval)"
				default:
					status = fmt.Sprintf("acc %.4f", cr.Result.FinalTestAccuracy)
				}
				if cr.Cached {
					status += " (cached)"
				}
			}
			fmt.Fprintf(stdout, "[%d/%d] %s — %s\n", done, total, cr.Spec.Label(), status)
		},
	}
	results, err := runner.Run(m)
	if slices.ContainsFunc(results, func(cr scenario.CellResult) bool { return cr.Err != nil }) {
		fmt.Fprintf(stderr, "matrix: %v\n", err)
		return 1
	}

	fmt.Fprintln(stdout)
	tbl := metrics.NewTable("workload", "rule", "attack", "f", "seed", "final acc", "final loss", "diverged", "byz sel rate")
	for _, cr := range results {
		s, r := cr.Spec, cr.Result
		atk := s.Attack
		if atk == "" {
			atk = "none"
		}
		tbl.AddRowf(s.Workload, s.Rule, atk, s.F, s.Seed,
			r.FinalTestAccuracy, r.FinalTestLoss, r.Diverged, r.ByzantineSelectionRate())
	}
	if err := tbl.Render(stdout); err != nil {
		fmt.Fprintf(stderr, "matrix table: %v\n", err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "matrix: %v\n", err)
		return 1
	}
	return 0
}
