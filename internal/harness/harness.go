// Package harness defines and runs the reproduction experiments: one
// regenerator per lemma/proposition/figure of the paper (and of its full
// version's evaluation section), as indexed in EXPERIMENTS.md at the
// repository root (experiment name → paper claim → command). Each
// experiment returns a machine-checkable summary — the shape tests
// assert the paper's qualitative claims on it — and renders the
// tables/series the paper reports.
//
// The experiment grids (rules × attacks × f × seeds) are declared as
// scenario.Matrix values and executed through scenario.Runner, so the
// harness contains no hand-rolled attack or schedule literals — every
// axis is a registry spec string.
package harness

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"krum/attack"
	"krum/distsgd"
	"krum/internal/vec"
	"krum/scenario"
	"krum/workload"
)

// ErrConfig is returned for invalid experiment configurations.
var ErrConfig = errors.New("harness: bad configuration")

// cellStore, when set, backs every scenario.Runner the harness builds
// (see SetStore).
var cellStore scenario.ResultStore

// SetStore routes every harness experiment that executes scenario
// cells (the figure grids, E7 and E8) through the given result store,
// so repeated invocations — and overlapping grids within one
// invocation — replay completed cells instead of recomputing them. The
// CLI wires this to krum-experiments -store. The aggregation-level
// Monte-Carlo experiments (fig2, prop42, table1, ablation) are not
// cells and always recompute. Pass nil to disable. Not safe to call
// concurrently with running experiments; set it once at startup.
func SetStore(st scenario.ResultStore) { cellStore = st }

// runCells runs cells on a scenario.Runner wired to the configured
// store. Every harness experiment that runs cells goes through here —
// constructing scenario.Runner directly would silently opt out of the
// store. A cell that failed fails the experiment (err). A failed
// write-through does not: the computed result is valid, so the
// Runner's error comes back as storeErr, for the experiment to return
// once it has rendered every cell.
func runCells(cells []scenario.Spec) (results []scenario.CellResult, storeErr, err error) {
	results, err = (&scenario.Runner{Store: cellStore}).RunCells(cells)
	for _, cr := range results {
		if cr.Err != nil {
			return nil, nil, err
		}
	}
	return results, err, nil
}

// trials runs count aggregation-level Monte-Carlo trials. Each draws a
// centre from N(0, I_d), then n−f correct proposals around it (every
// coordinate perturbed by sigma·N(0, 1)), then atk's f proposals, all
// from rng in that order, and hands observe the centre and the n
// proposals, correct ones first.
func trials(rng *vec.RNG, n, f, d int, sigma float64, atk attack.Strategy, count int, observe func(center []float64, proposals [][]float64) error) error {
	for trial := 0; trial < count; trial++ {
		center := rng.NewNormal(d, 0, 1)
		proposals := make([][]float64, n-f, n)
		for i := range proposals {
			// FillNormal(v, 0, 1) holds 0 + 1·z, which is z: no
			// Box–Muller variate is −0.
			v := make([]float64, d)
			rng.FillNormal(v, 0, 1)
			for j, c := range center {
				v[j] = c + sigma*v[j]
			}
			proposals[i] = v
		}
		byz := atk.Propose(&attack.Context{Round: trial, Params: center, Correct: proposals, F: f, RNG: rng})
		if err := observe(center, append(proposals, byz...)); err != nil {
			return err
		}
	}
	return nil
}

// selectsByzantine reports whether a selection includes a Byzantine
// proposal (index ≥ honest: trials puts the correct ones first).
func selectsByzantine(indices []int, honest int) bool {
	return slices.ContainsFunc(indices, func(i int) bool { return i >= honest })
}

// segmented runs cfg for rounds rounds, every rounds at a time from
// cfg.Model's parameters, seeding the segment that starts at round done
// with seed+done, and calls measure on the parameters before the first
// segment and after each one.
func segmented(cfg distsgd.Config, rounds, every int, seed uint64, measure func(params []float64, round int) error) error {
	params := cfg.Model.Params(nil)
	if err := measure(params, 0); err != nil {
		return err
	}
	cur := cfg.Model.Clone()
	cfg.Model, cfg.Rounds = cur, every
	for done := 0; done < rounds; done += every {
		if err := cur.SetParams(params); err != nil {
			return err
		}
		cfg.Seed = seed + uint64(done)
		out, err := distsgd.Run(cfg)
		if err != nil {
			return fmt.Errorf("segment at round %d: %w", done, err)
		}
		params = out.FinalParams
		if err := measure(params, done+every); err != nil {
			return err
		}
	}
	return nil
}

// Scale selects experiment size: Quick runs in seconds (CI, tests),
// Full approaches the paper's operating point (minutes).
type Scale int

// Supported scales (start at 1 per the style guide).
const (
	// Quick is the seconds-scale configuration.
	Quick Scale = iota + 1
	// Full is the paper-scale configuration.
	Full
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// pick returns q at Quick scale and f at Full scale.
func pick(s Scale, q, f int) int {
	if s == Full {
		return f
	}
	return q
}

// figSchedule is the learning-rate schedule spec shared by the figure
// experiments (the paper's Robbins–Monro family with a stretched decay
// horizon).
const figSchedule = "inverset(gamma=0.5,power=0.75,t0=200)"

// imageWorkloadSpec is the registry spec of the MLP-on-synthetic-MNIST
// workload the figure experiments use: image side length and hidden
// width scale with the experiment scale.
func imageWorkloadSpec(s Scale) string {
	return fmt.Sprintf("mnist(size=%d,hidden=%d)", pick(s, 10, 16), pick(s, 16, 48))
}

// figBase is the cell the image-workload figures (fig4/5, fig6, fig7,
// staleness) build their arms from: n = 15 workers on the image
// workload under figSchedule, 150 rounds at Quick scale and fullRounds
// at Full.
func figBase(s Scale, seed uint64, fullRounds int) scenario.Spec {
	return scenario.Spec{
		Workload:  imageWorkloadSpec(s),
		Schedule:  figSchedule,
		N:         15,
		Rounds:    pick(s, 150, fullRounds),
		BatchSize: pick(s, 16, 32),
		Seed:      seed,
		EvalEvery: pick(s, 10, 20),
		EvalBatch: pick(s, 300, 1000),
	}
}

// xValues converts a round axis to figure X values.
func xValues(rounds []int) []float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = float64(r)
	}
	return xs
}

// newImageWorkload builds the figure experiments' workload through the
// registry.
func newImageWorkload(s Scale, seed uint64) (*workload.Workload, error) {
	return workload.Parse(workload.SpecContext{Seed: seed}, imageWorkloadSpec(s))
}

// finalOrChance returns a run's final test accuracy, mapping diverged
// or never-evaluated runs (NaN sentinel) to chance level on the
// 10-class image task — figure tables and shape tests then see a loud
// failure value instead of a silently-propagating NaN.
func finalOrChance(res *distsgd.Result) float64 {
	if res.Diverged || math.IsNaN(res.FinalTestAccuracy) {
		return 0.1
	}
	return res.FinalTestAccuracy
}

// section writes a titled separator for the experiment binaries.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n===== %s =====\n", title)
}
