package harness

import (
	"fmt"
	"io"

	"krum/internal/metrics"
	"krum/scenario"
)

// Fig6Row is one m operating point of the Multi-Krum trade-off.
type Fig6Row struct {
	// M is the Multi-Krum parameter (1 = Krum, n = averaging).
	M int
	// CleanFinal is the final accuracy without attackers.
	CleanFinal float64
	// CleanRoundsToTarget is the first evaluated round reaching the
	// target accuracy without attackers (-1 if never) — the
	// convergence-speed axis of Figure 6.
	CleanRoundsToTarget int
	// ByzFinal is the final accuracy with f Gaussian attackers — the
	// resilience axis.
	ByzFinal float64
}

// Fig6Result summarizes experiment F6.
type Fig6Result struct {
	// N, F document the cluster.
	N, F int
	// Target is the accuracy threshold used for the speed comparison.
	Target float64
	// Rows is one entry per m.
	Rows []Fig6Row
}

// RunFig6 executes the Multi-Krum trade-off: convergence speed grows
// with m (averaging more estimates reduces variance) while resilience
// holds up to the safe range and collapses as m → n. The m sweep is two
// scenario matrices — a clean arm and a Gaussian-attacked arm — run
// concurrently through one Runner; every axis is a registry spec.
func RunFig6(w io.Writer, scale Scale, seed uint64) (*Fig6Result, error) {
	const f, target = 4, 0.75
	work, err := newImageWorkload(scale, seed)
	if err != nil {
		return nil, err
	}
	base := figBase(scale, seed, 500)
	n := base.N
	ms := []int{1, 4, 8, 11, 15}
	ruleSpecs := make([]string, len(ms))
	for i, m := range ms {
		ruleSpecs[i] = fmt.Sprintf("multikrum(f=%d,m=%d)", f, m)
	}
	clean := scenario.Matrix{Base: base, Rules: ruleSpecs, Fs: []int{0}}
	byz := scenario.Matrix{Base: base, Rules: ruleSpecs, Attacks: []string{"gaussian(sigma=200)"}, Fs: []int{f}}
	cells := append(clean.Cells(), byz.Cells()...)
	results, storeErr, err := runCells(cells)
	if err != nil {
		return nil, err
	}

	res := &Fig6Result{N: n, F: f, Target: target}
	for i, m := range ms {
		cleanRun := results[i].Result
		byzRun := results[len(ms)+i].Result

		roundsAxis, accs := cleanRun.AccuracySeries()
		toTarget := -1
		for j, a := range accs {
			if a >= target {
				toTarget = roundsAxis[j]
				break
			}
		}

		res.Rows = append(res.Rows, Fig6Row{
			M:                   m,
			CleanFinal:          finalOrChance(cleanRun),
			CleanRoundsToTarget: toTarget,
			ByzFinal:            finalOrChance(byzRun),
		})
	}

	section(w, fmt.Sprintf("F6 / Figure 6 — Multi-Krum trade-off on %s", work.Description))
	fmt.Fprintf(w, "n = %d; 'byz' columns face f = %d Gaussian attackers; target accuracy %.2f\n\n", n, f, target)
	tbl := metrics.NewTable("m", "clean final acc", "rounds to target (clean)", "final acc with attack")
	for _, r := range res.Rows {
		toTarget := "never"
		if r.CleanRoundsToTarget >= 0 {
			toTarget = fmt.Sprintf("%d", r.CleanRoundsToTarget)
		}
		tbl.AddRowf(r.M, r.CleanFinal, toTarget, r.ByzFinal)
	}
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nLarger m averages more estimates (faster/cleaner convergence, Figure 6);\nresilience holds while the selected set cannot contain a majority of\nByzantine proposals and collapses as m → n (averaging).\n")
	return res, storeErr
}
