package harness

import (
	"fmt"
	"io"

	"krum"
	"krum/attack"
	"krum/internal/metrics"
	"krum/internal/vec"
)

// Fig2Row is one (f, rule) cell of the Figure 2 reproduction.
type Fig2Row struct {
	// F is the number of colluding Byzantine workers.
	F int
	// MedoidByzRate is the fraction of trials in which the medoid rule
	// picked a Byzantine vector. Note that at f = 1 the collusion has
	// no decoys and its proposal is the harmless cluster barycenter, so
	// the selection rate alone is not the attack-success metric — the
	// distortion below is.
	MedoidByzRate float64
	// KrumByzRate is the same for Krum.
	KrumByzRate float64
	// MedoidDistortion is the mean distance between the medoid output
	// and the true gradient (the paper predicts: small for f = 1,
	// arbitrary/huge for f ≥ 2).
	MedoidDistortion float64
	// KrumDistortion is the same for Krum (small for all f with
	// 2f+2 < n).
	KrumDistortion float64
}

// Fig2Result summarizes experiment E2.
type Fig2Result struct {
	// N is the total number of workers.
	N int
	// Rows holds one entry per f value.
	Rows []Fig2Row
}

// RunFig2 executes E2: pure aggregation-level Monte Carlo of the
// Figure 2 geometry (no training loop needed — the figure is about the
// choice function itself). For each f it reports both how often each
// rule selects a Byzantine proposal and how far the selected value lies
// from the true gradient.
func RunFig2(w io.Writer, scale Scale, seed uint64) (*Fig2Result, error) {
	const n, d = 13, 10
	count := pick(scale, 300, 3000)
	rng := vec.NewRNG(seed)
	res := &Fig2Result{N: n}

	for _, f := range []int{1, 2, 3, 4} {
		medoidHits, krumHits := 0, 0
		var medoidDist, krumDist float64
		krumRule := krum.NewKrum(f)
		out := make([]float64, d)
		// Correct gradients: a tight cluster around a random center.
		err := trials(rng, n, f, d, 0.05, attack.MedoidCollusion{Offset: 1e4}, count, func(center []float64, proposals [][]float64) error {
			medSel, err := (krum.Medoid{}).Select(proposals)
			if err != nil {
				return fmt.Errorf("medoid select: %w", err)
			}
			if medSel[0] >= n-f {
				medoidHits++
			}
			medoidDist += vec.Dist(proposals[medSel[0]], center)

			krumSel, err := krumRule.Select(proposals)
			if err != nil {
				return fmt.Errorf("krum select: %w", err)
			}
			if krumSel[0] >= n-f {
				krumHits++
			}
			if err := krumRule.Aggregate(out, proposals); err != nil {
				return fmt.Errorf("krum aggregate: %w", err)
			}
			krumDist += vec.Dist(out, center)
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig2Row{
			F:                f,
			MedoidByzRate:    float64(medoidHits) / float64(count),
			KrumByzRate:      float64(krumHits) / float64(count),
			MedoidDistortion: medoidDist / float64(count),
			KrumDistortion:   krumDist / float64(count),
		})
	}

	section(w, "E2 / Figure 2 — collusion defeats the medoid rule, not Krum")
	fmt.Fprintf(w, "n = %d workers, %d trials per row; 'byz sel' = P[Byzantine proposal selected],\n'dist' = E‖output − true gradient‖ (correct spread ≈ 0.16)\n\n", n, count)
	tbl := metrics.NewTable("f", "medoid byz sel", "medoid dist", "krum byz sel", "krum dist")
	for _, r := range res.Rows {
		tbl.AddRowf(r.F, r.MedoidByzRate, r.MedoidDistortion, r.KrumByzRate, r.KrumDistortion)
	}
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nAt f = 1 the collusion has no decoys (its barycenter proposal is harmless);\nfrom f = 2 on, the medoid is dragged arbitrarily far (Figure 2) while Krum's\noutput stays inside the correct cluster for every f with 2f+2 < n.\n")
	return res, nil
}
