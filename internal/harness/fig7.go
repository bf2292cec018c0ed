package harness

import (
	"fmt"
	"io"

	"krum/internal/metrics"
	"krum/scenario"
)

// Fig7Row is one batch-size operating point of the cost-of-resilience
// experiment.
type Fig7Row struct {
	// Batch is the correct workers' mini-batch size.
	Batch int
	// KrumByzFinal is Krum's final accuracy at that batch size under
	// attack.
	KrumByzFinal float64
}

// Fig7Result summarizes experiment F7.
type Fig7Result struct {
	// AverageCleanFinal is the attack-free averaging reference at the
	// smallest batch size.
	AverageCleanFinal float64
	// Rows is the batch sweep for Krum under attack.
	Rows []Fig7Row
}

// RunFig7 executes the cost-of-resilience study (full paper Figure 7):
// Krum's slowdown relative to attack-free averaging is recovered by
// growing the correct workers' mini-batch (smaller estimator variance
// σ ⇒ smaller resilience angle α ⇒ selection closer to the true
// gradient). Batch size is not a matrix axis, so the sweep is an
// explicit scenario cell list run concurrently through the Runner.
func RunFig7(w io.Writer, scale Scale, seed uint64) (*Fig7Result, error) {
	const f, smallBatch = 4, 3
	batches := []int{3, 10, 30, 100}

	work, err := newImageWorkload(scale, seed)
	if err != nil {
		return nil, err
	}
	// Every cell sets its own batch size.
	base := figBase(scale, seed, 500)
	n := base.N

	ref := base
	ref.Rule = "average"
	ref.F = 0
	ref.BatchSize = smallBatch
	cells := []scenario.Spec{ref}
	for _, b := range batches {
		cell := base
		cell.Rule = fmt.Sprintf("krum(f=%d)", f)
		cell.F = f
		cell.BatchSize = b
		cell.Attack = "gaussian(sigma=200)"
		cells = append(cells, cell)
	}
	results, storeErr, err := runCells(cells)
	if err != nil {
		return nil, err
	}

	res := &Fig7Result{AverageCleanFinal: finalOrChance(results[0].Result)}
	for i, b := range batches {
		res.Rows = append(res.Rows, Fig7Row{Batch: b, KrumByzFinal: finalOrChance(results[i+1].Result)})
	}

	section(w, fmt.Sprintf("F7 / Figure 7 — cost of resilience on %s", work.Description))
	fmt.Fprintf(w, "n = %d, f = %d Gaussian attackers; reference: attack-free averaging at batch %d\n\n", n, f, smallBatch)
	tbl := metrics.NewTable("worker batch", "krum final acc (under attack)", "Δ vs clean average")
	for _, r := range res.Rows {
		tbl.AddRowf(r.Batch, r.KrumByzFinal, r.KrumByzFinal-res.AverageCleanFinal)
	}
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nclean averaging reference: %.3f. Growing the mini-batch shrinks the\nestimator deviation σ, closing Krum's gap (Figure 7's crossover).\n", res.AverageCleanFinal)
	return res, storeErr
}
