package distsgd

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"krum/internal/core"
)

// sampleResult builds a Result exercising every serialization hazard:
// non-finite history floats, NaN sentinels, a diverged parameter
// vector with NaN/±Inf/-0 entries, NaN payload bits, and Stats, which
// must not be encoded at all.
func sampleResult() *Result {
	return &Result{
		History: []RoundStats{
			{Round: 0, TrainLoss: 1.25, UpdateNorm: 3.5, LearningRate: 0.1},
			{Round: 1, TrainLoss: math.Inf(1), UpdateNorm: math.NaN(), LearningRate: 0.05,
				ByzantineChosen: true, Evaluated: true, TestAccuracy: 0.875, TestLoss: math.Inf(-1)},
		},
		FinalParams: []float64{
			1.5, -0.0, math.NaN(), math.Inf(1), math.Inf(-1),
			math.Float64frombits(0x7FF8_0000_0000_0001), // NaN with payload
			0.1, // not exactly representable — exercises shortest-repr
		},
		Diverged:                true,
		DivergedRound:           1,
		ByzantineSelectedRounds: 1,
		SelectionTrackedRounds:  2,
		FinalTestAccuracy:       math.NaN(),
		FinalTestLoss:           math.NaN(),
		Stats:                   core.CacheStats{Builds: 3, Reuses: 5, RowUpdates: 7},
	}
}

// TestResultJSONRoundTripBitExact checks the store's core contract:
// Marshal ∘ Unmarshal ∘ Marshal is the identity on bytes, and the
// decoded FinalParams are bit-identical to the original (NaN payloads
// and signed zeros included). Stats is a sidecar: it changes no byte
// and decodes to zero.
func TestResultJSONRoundTripBitExact(t *testing.T) {
	orig := sampleResult()
	enc1, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	noStats := *orig
	noStats.Stats = core.CacheStats{}
	if enc, err := json.Marshal(noStats); err != nil || !bytes.Equal(enc, enc1) {
		t.Fatalf("Stats moved the encoding (err %v):\n with: %s\n zero: %s", err, enc1, enc)
	}
	var back Result
	if err := json.Unmarshal(enc1, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	enc2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encoding not stable:\n first: %s\nsecond: %s", enc1, enc2)
	}
	if len(back.FinalParams) != len(orig.FinalParams) {
		t.Fatalf("FinalParams length %d, want %d", len(back.FinalParams), len(orig.FinalParams))
	}
	for i := range orig.FinalParams {
		if math.Float64bits(back.FinalParams[i]) != math.Float64bits(orig.FinalParams[i]) {
			t.Errorf("FinalParams[%d] bits %016x, want %016x",
				i, math.Float64bits(back.FinalParams[i]), math.Float64bits(orig.FinalParams[i]))
		}
	}
	if !back.Diverged || back.DivergedRound != 1 {
		t.Errorf("divergence flags lost: %+v", back)
	}
	if !math.IsNaN(back.FinalTestAccuracy) || !math.IsNaN(back.FinalTestLoss) {
		t.Errorf("NaN sentinels lost: acc=%v loss=%v", back.FinalTestAccuracy, back.FinalTestLoss)
	}
	if len(back.History) != 2 {
		t.Fatalf("history length %d, want 2", len(back.History))
	}
	if !math.IsInf(back.History[1].TrainLoss, 1) || !math.IsNaN(back.History[1].UpdateNorm) {
		t.Errorf("non-finite history floats lost: %+v", back.History[1])
	}
	if !math.IsInf(back.History[1].TestLoss, -1) {
		t.Errorf("-Inf test loss lost: %v", back.History[1].TestLoss)
	}
	if !back.History[1].ByzantineChosen || !back.History[1].Evaluated {
		t.Errorf("bool flags lost: %+v", back.History[1])
	}
	if back.Stats != (core.CacheStats{}) {
		t.Errorf("decoded Stats = %+v, want zero", back.Stats)
	}
}

// TestResultJSONFromLiveRun serializes an actual training result —
// including a NaN never-evaluated sentinel — and checks exact
// round-trip of the history floats.
func TestResultJSONFromLiveRun(t *testing.T) {
	cfg := quickConfig(t) // helper from distsgd_test.go
	cfg.Rounds = 15
	cfg.EvalEvery = 0 // FinalTestAccuracy/Loss stay NaN — the sentinel path
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal live result: %v", err)
	}
	var back Result
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("unmarshal live result: %v", err)
	}
	if len(back.History) != len(res.History) {
		t.Fatalf("history length %d, want %d", len(back.History), len(res.History))
	}
	for i := range res.History {
		if back.History[i] != res.History[i] {
			t.Errorf("history[%d] = %+v, want %+v", i, back.History[i], res.History[i])
		}
	}
	for i := range res.FinalParams {
		if math.Float64bits(back.FinalParams[i]) != math.Float64bits(res.FinalParams[i]) {
			t.Errorf("FinalParams[%d] differs after round-trip", i)
		}
	}
}

// TestJSONFloatRejectsBadString ensures corrupted store records fail
// loudly instead of decoding to garbage.
func TestJSONFloatRejectsBadString(t *testing.T) {
	var f jsonFloat
	if err := json.Unmarshal([]byte(`"Infinity"`), &f); err == nil {
		t.Fatal(`"Infinity" decoded without error; want rejection`)
	}
	var r Result
	if err := json.Unmarshal([]byte(`{"final_params_b64":"!!!"}`), &r); err == nil {
		t.Fatal("bad base64 decoded without error; want rejection")
	}
}
