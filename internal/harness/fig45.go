package harness

import (
	"fmt"
	"io"

	"krum/attack"
	"krum/internal/metrics"
	"krum/scenario"
)

// AttackCurves holds the four accuracy-vs-round series of the Figure
// 4/5 layout: {average, krum} × {0% Byzantine, ~33% Byzantine}.
type AttackCurves struct {
	// Attack names the Byzantine behaviour (canonical registry spec).
	Attack string
	// Rounds is the shared evaluation axis.
	Rounds []int
	// AvgClean, AvgByz, KrumClean, KrumByz are the accuracy series.
	AvgClean, AvgByz, KrumClean, KrumByz []float64
	// Final accuracies (last evaluation of each run).
	AvgCleanFinal, AvgByzFinal, KrumCleanFinal, KrumByzFinal float64
	// AvgByzDiverged reports whether the attacked averaging run blew
	// up before finishing.
	AvgByzDiverged bool
}

// padTo extends a (possibly short, because diverged) series to the
// reference axis by repeating the last value — the paper plots
// destroyed runs as flat-lined chance accuracy.
func padTo(axis []int, rounds []int, accs []float64, fallback float64) []float64 {
	out := make([]float64, len(axis))
	j := 0
	last := fallback
	for i, r := range axis {
		if j < len(rounds) && rounds[j] == r {
			last = accs[j]
			j++
		}
		out[i] = last
	}
	return out
}

// RunAttackFigure executes the Figure 4 (Gaussian) or Figure 5
// (omniscient) reproduction on the image workload: accuracy per round
// for averaging and Krum with 0% and ≈33% Byzantine workers. The four
// runs are declared as two scenario matrices (a clean arm at f = 0 and
// an attacked arm at f > 0) and executed concurrently by one Runner.
func RunAttackFigure(w io.Writer, scale Scale, seed uint64, attackSpec, figName string) (*AttackCurves, error) {
	atk, err := attack.Parse(attackSpec)
	if err != nil {
		return nil, fmt.Errorf("attack spec %q: %w", attackSpec, err)
	}
	work, err := newImageWorkload(scale, seed)
	if err != nil {
		return nil, err
	}
	base := figBase(scale, seed, 600)
	n, f := base.N, 4 // 4/15 ≈ 27%, satisfying 2f+2 < n
	ruleSpecs := []string{"average", fmt.Sprintf("krum(f=%d)", f)}
	clean := scenario.Matrix{Base: base, Rules: ruleSpecs, Fs: []int{0}}
	byz := scenario.Matrix{Base: base, Rules: ruleSpecs, Attacks: []string{attackSpec}, Fs: []int{f}}
	cells := append(clean.Cells(), byz.Cells()...)
	results, storeErr, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	avgCleanRes := results[0].Result
	krumCleanRes := results[1].Result
	avgByzRes := results[2].Result
	krumByzRes := results[3].Result

	curves := &AttackCurves{Attack: atk.Name()}
	axis, avgClean := avgCleanRes.AccuracySeries()
	curves.Rounds = axis
	curves.AvgClean = avgClean
	curves.AvgCleanFinal = finalOrChance(avgCleanRes)

	byzRounds, byzAccs := avgByzRes.AccuracySeries()
	curves.AvgByzDiverged = avgByzRes.Diverged
	curves.AvgByz = padTo(axis, byzRounds, byzAccs, 0.1)
	curves.AvgByzFinal = curves.AvgByz[len(curves.AvgByz)-1]

	_, krumClean := krumCleanRes.AccuracySeries()
	curves.KrumClean = padTo(axis, axis, krumClean, 0.1)
	curves.KrumCleanFinal = finalOrChance(krumCleanRes)

	_, krumByz := krumByzRes.AccuracySeries()
	curves.KrumByz = padTo(axis, axis, krumByz, 0.1)
	curves.KrumByzFinal = finalOrChance(krumByzRes)

	section(w, fmt.Sprintf("%s — %s attack on %s", figName, atk.Name(), work.Description))
	fmt.Fprintf(w, "n = %d workers, f = %d (%.0f%%) Byzantine when attacked\n\n", n, f, 100*float64(f)/float64(n))
	fig := &metrics.Figure{
		Title:  "test accuracy vs round",
		XLabel: "round",
		X:      xValues(axis),
		Series: []metrics.Series{
			{Name: "average 0% byz", Y: curves.AvgClean},
			{Name: fmt.Sprintf("average %d byz", f), Y: curves.AvgByz},
			{Name: "krum 0% byz", Y: curves.KrumClean},
			{Name: fmt.Sprintf("krum %d byz", f), Y: curves.KrumByz},
		},
	}
	if err := fig.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	if err := fig.ASCIIChart(w, 72, 14); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nfinal: avg(0%%)=%.3f avg(byz)=%.3f (diverged=%v) krum(0%%)=%.3f krum(byz)=%.3f\n",
		curves.AvgCleanFinal, curves.AvgByzFinal, curves.AvgByzDiverged,
		curves.KrumCleanFinal, curves.KrumByzFinal)
	return curves, storeErr
}

// RunFig4 is the Gaussian-attack figure (full paper Figure 4).
func RunFig4(w io.Writer, scale Scale, seed uint64) (*AttackCurves, error) {
	return RunAttackFigure(w, scale, seed, "gaussian(sigma=200)", "F4 / Figure 4")
}

// RunFig5 is the omniscient-attack figure (full paper Figure 5).
func RunFig5(w io.Writer, scale Scale, seed uint64) (*AttackCurves, error) {
	return RunAttackFigure(w, scale, seed, "omniscient(scale=20)", "F5 / Figure 5")
}
