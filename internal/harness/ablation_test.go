package harness

import (
	"crypto/sha256"
	"math"
	"testing"
)

func TestRunAblationShape(t *testing.T) {
	h := sha256.New()
	res, err := RunAblation(h, Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkRendered(t, h, "8947bfda081d0886e1d7f4bb0818010c7fff236ede4dccb34a01ba62b070e24c")
	bulyan := res.Row("bulyan")
	avg := res.Row("average")
	krumRow := res.Row("krum")
	if bulyan == nil || avg == nil || krumRow == nil {
		t.Fatal("missing rows")
	}
	// Bulyan bounds the attacked coordinate near the honest spread.
	if bulyan.CoordError > 3*bulyan.RestError+0.2 {
		t.Errorf("bulyan attacked-coord error %v vs rest %v", bulyan.CoordError, bulyan.RestError)
	}
	// The attack must actually bite somewhere: averaging (always
	// incorporates the spike) must be worse on the attacked coordinate
	// than Bulyan.
	if avg.CoordError < bulyan.CoordError {
		t.Errorf("attack not discriminating: avg %v vs bulyan %v", avg.CoordError, bulyan.CoordError)
	}
	if !math.IsNaN(avg.ByzSelectedRate) {
		t.Error("average should not report selection")
	}
	if math.IsNaN(krumRow.ByzSelectedRate) {
		t.Error("krum should report selection")
	}
}

func TestRunNonIIDShape(t *testing.T) {
	h := sha256.New()
	res, err := RunNonIID(h, Quick, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkRendered(t, h, "9d48da881906366b3f6b885725f17f010f99c42dc0db86277b21622a08bf724e")
	avg := res.Row("average")
	krumRow := res.Row("krum")
	if avg == nil || krumRow == nil {
		t.Fatal("missing rows")
	}
	// Everyone is honest: averaging must be essentially unaffected by
	// the skew.
	if avg.Gap > 0.1 {
		t.Errorf("averaging gap %v under label skew", avg.Gap)
	}
	// All rules learn in the iid setting.
	for _, row := range res.Rows {
		if row.IIDAccuracy < 0.5 {
			t.Errorf("%s iid accuracy %v", row.Rule, row.IIDAccuracy)
		}
	}
	// The headline of E7: Krum pays a visible price relative to
	// averaging under heterogeneity.
	if krumRow.SkewAccuracy > avg.SkewAccuracy {
		t.Logf("note: krum (%v) beat averaging (%v) under skew this seed",
			krumRow.SkewAccuracy, avg.SkewAccuracy)
	}
	if krumRow.Gap < -0.05 {
		t.Errorf("krum gap %v — skew should not HELP selection rules", krumRow.Gap)
	}
}
