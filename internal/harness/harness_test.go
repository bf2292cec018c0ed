package harness

import (
	"io"
	"strings"
	"testing"
)

// The harness tests ARE the reproduction's shape checks: each asserts
// the paper's qualitative claim on the quick-scale experiment.

func TestRunLemma31Shape(t *testing.T) {
	res, err := RunLemma31(io.Discard, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker controls the linear rule's output exactly.
	if res.ForcedUpdateError > 1e-6 {
		t.Errorf("forced update error %v, want ≈ 0", res.ForcedUpdateError)
	}
	// Averaging is destroyed (diverged or chance accuracy); Krum is not.
	if !res.AverageDiverged && res.AverageFinalAccuracy > 0.6 {
		t.Errorf("averaging survived: diverged=%v acc=%v", res.AverageDiverged, res.AverageFinalAccuracy)
	}
	if res.KrumDiverged {
		t.Error("krum diverged")
	}
	if res.KrumFinalAccuracy < 0.85 {
		t.Errorf("krum accuracy %v under the Lemma 3.1 attack", res.KrumFinalAccuracy)
	}
}

func TestRunFig2Shape(t *testing.T) {
	res, err := RunFig2(io.Discard, Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		switch {
		case row.F == 1:
			// With one attacker the collusion has no decoys: the
			// medoid tolerates it — its output stays in the correct
			// cluster (small distortion) even if the harmless
			// barycenter proposal is selected.
			if row.MedoidDistortion > 1 {
				t.Errorf("f=1: medoid distortion %v, expected tolerance", row.MedoidDistortion)
			}
		case row.F >= 2:
			// The Figure 2 capture: the medoid selects the planted
			// barycenter essentially always, and that barycenter has
			// been dragged far from the correct area.
			if row.MedoidByzRate < 0.9 {
				t.Errorf("f=%d: medoid byz rate %v, want ≈ 1", row.F, row.MedoidByzRate)
			}
			if row.MedoidDistortion < 100 {
				t.Errorf("f=%d: medoid distortion %v, want ≫ correct spread", row.F, row.MedoidDistortion)
			}
			if row.KrumByzRate > 0.05 {
				t.Errorf("f=%d: krum byz rate %v, want ≈ 0", row.F, row.KrumByzRate)
			}
		}
		// Krum's output stays in the correct cluster for every f.
		if row.KrumDistortion > 1 {
			t.Errorf("f=%d: krum distortion %v", row.F, row.KrumDistortion)
		}
	}
}

func TestRunLemma41Shape(t *testing.T) {
	// The fit is a six-point wall-clock regression of ~20 ms per point.
	// On a shared host whose clock speed drifts by a quarter within a
	// second, one sweep lands under the threshold about four times in
	// ten, so the model gets a few sweeps to show its shape; a kernel
	// that stopped scaling as n²·d fails all of them.
	const sweeps = 5
	var res *Lemma41Result
	for s := 0; s < sweeps; s++ {
		var err error
		if res, err = RunLemma41(io.Discard, Quick, 3); err != nil {
			t.Fatal(err)
		}
		if res.R2 >= 0.95 {
			break
		}
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// The O(n²·d) model must explain the measurements well. Under the
	// race detector the timing is instrumentation-dominated and the
	// fit quality is meaningless (it flakes under load), so the
	// threshold check is left to the plain test job.
	if !raceDetectorEnabled && res.R2 < 0.95 {
		t.Errorf("n²·d fit r² < 0.95 in each of %d sweeps (last: %v)", sweeps, res.R2)
	}
	if res.NanosPerN2D <= 0 {
		t.Errorf("fitted constant %v", res.NanosPerN2D)
	}
}

func TestRunProp42Shape(t *testing.T) {
	res, err := RunProp42(io.Discard, Quick, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SinAlpha < 1 {
			// Inside the precondition: Krum must satisfy both
			// conditions, averaging must fail (i).
			if !row.KrumConditionI || !row.KrumConditionII {
				t.Errorf("σ=%v: krum failed resilience inside precondition (i=%v ii=%v)",
					row.Sigma, row.KrumConditionI, row.KrumConditionII)
			}
		}
		if row.AverageConditionI {
			t.Errorf("σ=%v: averaging passed condition (i) under directed attack", row.Sigma)
		}
	}
	// sin α must increase with σ.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].SinAlpha <= res.Rows[i-1].SinAlpha {
			t.Error("sin α not monotone in σ")
		}
	}
}

func TestRunProp43Shape(t *testing.T) {
	res, err := RunProp43(io.Discard, Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GradNorm) < 5 {
		t.Fatalf("%d measurements", len(res.GradNorm))
	}
	// The true gradient norm must shrink substantially despite the
	// omniscient attackers.
	if res.ReductionFactor < 3 {
		t.Errorf("gradient norm reduced only ×%v under attack", res.ReductionFactor)
	}
	// Parameter error must shrink too.
	first, last := res.ParamError[0], res.ParamError[len(res.ParamError)-1]
	if last > first/2 {
		t.Errorf("param error %v → %v, want meaningful contraction", first, last)
	}
	// The non-convex phase must also reach a flatter region.
	if len(res.NonConvexGradNorm) < 5 {
		t.Fatalf("%d non-convex measurements", len(res.NonConvexGradNorm))
	}
	if res.NonConvexReduction < 2 {
		t.Errorf("non-convex gradient norm reduced only ×%v under attack", res.NonConvexReduction)
	}
}

func TestRunFig4Shape(t *testing.T) {
	res, err := RunFig4(io.Discard, Quick, 6)
	if err != nil {
		t.Fatal(err)
	}
	assertAttackCurves(t, res)
}

func TestRunFig5Shape(t *testing.T) {
	res, err := RunFig5(io.Discard, Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	assertAttackCurves(t, res)
}

// assertAttackCurves checks the common Figure 4/5 shape: all curves
// except attacked averaging learn; attacked averaging is destroyed.
func assertAttackCurves(t *testing.T, res *AttackCurves) {
	t.Helper()
	if len(res.Rounds) < 5 {
		t.Fatalf("%d eval points", len(res.Rounds))
	}
	if res.AvgCleanFinal < 0.5 {
		t.Errorf("clean averaging only reached %v (chance 0.1)", res.AvgCleanFinal)
	}
	if res.KrumCleanFinal < 0.5 {
		t.Errorf("clean krum only reached %v", res.KrumCleanFinal)
	}
	if res.KrumByzFinal < 0.5 {
		t.Errorf("attacked krum only reached %v — resilience failed", res.KrumByzFinal)
	}
	// Averaging under attack: destroyed — chance-level or diverged.
	if !res.AvgByzDiverged && res.AvgByzFinal > 0.3 {
		t.Errorf("attacked averaging reached %v, want ≈ chance", res.AvgByzFinal)
	}
	// Krum under attack tracks its clean curve: within 15 points.
	if res.KrumCleanFinal-res.KrumByzFinal > 0.15 {
		t.Errorf("krum degraded too much under attack: clean %v vs byz %v",
			res.KrumCleanFinal, res.KrumByzFinal)
	}
}

func TestRunFig6Shape(t *testing.T) {
	res, err := RunFig6(io.Discard, Quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// m = n is averaging: destroyed by the Gaussian attack.
	last := res.Rows[len(res.Rows)-1]
	if last.M != res.N {
		t.Fatalf("last row m = %d", last.M)
	}
	if last.ByzFinal > 0.3 {
		t.Errorf("m=n byz accuracy %v, want chance", last.ByzFinal)
	}
	// Safe m values (m ≤ n−f−... here 1..8 with f=4, n=15) retain
	// resilience.
	for _, row := range res.Rows {
		if row.M <= res.N-2*res.F && row.ByzFinal < 0.5 {
			t.Errorf("m=%d byz accuracy %v, resilience expected", row.M, row.ByzFinal)
		}
		if row.CleanFinal < 0.5 {
			t.Errorf("m=%d clean accuracy %v", row.M, row.CleanFinal)
		}
	}
}

func TestRunFig7Shape(t *testing.T) {
	res, err := RunFig7(io.Discard, Quick, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.AverageCleanFinal < 0.5 {
		t.Errorf("clean average reference %v", res.AverageCleanFinal)
	}
	// Larger batches must not hurt; the largest batch should land close
	// to the clean reference (the Figure 7 recovery).
	largest := res.Rows[len(res.Rows)-1]
	if res.AverageCleanFinal-largest.KrumByzFinal > 0.12 {
		t.Errorf("batch=%d krum %v still far below clean average %v",
			largest.Batch, largest.KrumByzFinal, res.AverageCleanFinal)
	}
	if largest.KrumByzFinal+0.05 < res.Rows[0].KrumByzFinal {
		t.Errorf("accuracy decreased with batch: %v", res.Rows)
	}
}

func TestRunTable1Shape(t *testing.T) {
	res, err := RunTable1(io.Discard, Quick, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Krum rejects every value-distorting attack.
	for _, atk := range []string{"gaussian(sigma=200)", "omniscient(scale=20)", "signflip", "medoidcollusion(offset=10000)"} {
		cell := res.Cell(atk, "krum")
		if cell == nil {
			t.Fatalf("missing cell %s/krum", atk)
		}
		if cell.ByzSelectedRate > 0.05 {
			t.Errorf("krum selected byz under %s at rate %v", atk, cell.ByzSelectedRate)
		}
	}
	// Medoid is captured by the collusion.
	if cell := res.Cell("medoidcollusion(offset=10000)", "medoid"); cell == nil || cell.ByzSelectedRate < 0.9 {
		t.Errorf("medoid collusion cell: %+v", cell)
	}
	// Mimic is value-identical: selection rates may be anything, but
	// the cells must exist.
	if res.Cell("mimic", "krum") == nil {
		t.Error("missing mimic cell")
	}
}

func TestExperimentOutputRenders(t *testing.T) {
	// The textual output paths (tables, figures, ASCII charts) must not
	// error and must mention the key labels.
	var sb strings.Builder
	if _, err := RunFig2(&sb, Quick, 11); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 2", "medoid", "krum"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names")
	}
	if Scale(9).String() != "scale(9)" {
		t.Error("unknown scale name")
	}
}

func TestRunAttackFigureBadAttackSpec(t *testing.T) {
	if _, err := RunAttackFigure(io.Discard, Quick, 1, "", "x"); err == nil {
		t.Error("empty attack spec accepted")
	}
	if _, err := RunAttackFigure(io.Discard, Quick, 1, "nosuchattack", "x"); err == nil {
		t.Error("unknown attack spec accepted")
	}
}

func TestPadTo(t *testing.T) {
	axis := []int{9, 19, 29}
	got := padTo(axis, []int{9}, []float64{0.5}, 0.1)
	want := []float64{0.5, 0.5, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("padTo = %v", got)
		}
	}
	got = padTo(axis, nil, nil, 0.1)
	if got[0] != 0.1 || got[2] != 0.1 {
		t.Errorf("padTo fallback = %v", got)
	}
}

func TestImageWorkloadLabels(t *testing.T) {
	w, err := newImageWorkload(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.Description, "synthetic MNIST") {
		t.Errorf("description %q", w.Description)
	}
	// Quick scale is a 10×10 image grid.
	if w.Dataset.Dim() != 100 {
		t.Errorf("dim %d, want 100", w.Dataset.Dim())
	}
}
