package harness

import (
	"fmt"
	"io"

	"krum/internal/core"
	"krum/internal/metrics"
	"krum/scenario"
)

// NonIIDRow is one rule's outcome under homogeneous and label-skewed
// worker data.
type NonIIDRow struct {
	// Rule names the aggregation rule.
	Rule string
	// IIDAccuracy is the final accuracy with i.i.d. workers.
	IIDAccuracy float64
	// SkewAccuracy is the final accuracy with label-skewed workers.
	SkewAccuracy float64
	// Gap is IIDAccuracy − SkewAccuracy.
	Gap float64
}

// NonIIDResult summarizes extension experiment E7.
type NonIIDResult struct {
	// N is the number of (all honest) workers.
	N int
	// Rows is one entry per rule.
	Rows []NonIIDRow
}

// RunNonIID executes E7: violate the paper's assumption (iii) — i.i.d.
// unbiased gradient estimators — by giving each honest worker a skewed
// class subset, with NO Byzantine workers at all. Averaging still sees
// an unbiased aggregate (the skews cancel in the mean); Krum selects a
// SINGLE worker's gradient per round, which under label skew is a
// biased estimate, so selection rules degrade. This is the documented
// boundary of the paper's guarantee, not a bug. The eight runs are
// scenario cells: each rule on the image workload and on its
// partition, which deals the classes across the workers.
func RunNonIID(w io.Writer, scale Scale, seed uint64) (*NonIIDResult, error) {
	const n = 10
	work, err := newImageWorkload(scale, seed)
	if err != nil {
		return nil, err
	}
	iid := imageWorkloadSpec(scale)
	// Every worker is honest (f = 0), but the selection rules declare a
	// nominal tolerance f = 2.
	rules := []string{"average", "krum(f=2)", fmt.Sprintf("multikrum(f=2,m=%d)", n-2), "coordmedian"}
	m := scenario.Matrix{
		Base: scenario.Spec{
			Schedule:  figSchedule,
			N:         n,
			Rounds:    pick(scale, 200, 600),
			BatchSize: pick(scale, 16, 32),
			Seed:      seed,
			EvalEvery: pick(scale, 20, 40),
			EvalBatch: pick(scale, 300, 1000),
		},
		Workloads: []string{iid, "partition(base=" + iid + ")"},
		Rules:     rules,
	}
	results, storeErr, err := runCells(m.Cells())
	if err != nil {
		return nil, err
	}

	res := &NonIIDResult{N: n}
	for i, spec := range rules {
		rule, err := core.ParseRuleIn(core.SpecContext{N: n}, spec)
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", spec, err)
		}
		iidAcc := results[i].Result.FinalTestAccuracy
		skewAcc := results[len(rules)+i].Result.FinalTestAccuracy
		res.Rows = append(res.Rows, NonIIDRow{
			Rule:         rule.Name(),
			IIDAccuracy:  iidAcc,
			SkewAccuracy: skewAcc,
			Gap:          iidAcc - skewAcc,
		})
	}

	section(w, fmt.Sprintf("E7 (extension) — non-i.i.d. workers on %s", work.Description))
	fmt.Fprintf(w, "n = %d honest workers, NO attackers; 'skew' deals each worker a disjoint\nclass subset (assumption (iii) of Prop. 4.3 violated)\n\n", n)
	tbl := metrics.NewTable("rule", "iid accuracy", "label-skew accuracy", "gap")
	for _, r := range res.Rows {
		tbl.AddRowf(r.Rule, r.IIDAccuracy, r.SkewAccuracy, r.Gap)
	}
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nAveraging cancels the per-worker skews; Krum selects one (biased) worker\nper round and pays for it — the documented boundary of the paper's\ni.i.d. assumption, and the opening for later heterogeneity-aware work.\n")
	return res, storeErr
}

// Row returns the named row, or nil.
func (r *NonIIDResult) Row(rule string) *NonIIDRow {
	for i := range r.Rows {
		if r.Rows[i].Rule == rule {
			return &r.Rows[i]
		}
	}
	return nil
}
