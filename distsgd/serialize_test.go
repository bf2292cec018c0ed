package distsgd

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
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
// loudly instead of decoding to garbage: a float string other than the
// three the encoding writes, and base64 that does not decode.
func TestJSONFloatRejectsBadString(t *testing.T) {
	good, err := json.Marshal(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		bytes.Replace(good, []byte(`"final_test_accuracy":"NaN"`), []byte(`"final_test_accuracy":"Infinity"`), 1),
		bytes.Replace(good, []byte(`"final_params_b64":"`), []byte(`"final_params_b64":"!!!!`), 1),
		[]byte(`{"final_params_b64":"!!!"}`),
	} {
		var r Result
		if err := json.Unmarshal(bad, &r); err == nil {
			t.Errorf("%s decoded without error; want rejection", bad)
		}
	}
}

// randomFloat draws from the values the encoding treats specially —
// NaN (with and without payload), ±Inf, ±0, subnormals, both sides of
// the 1e-6 and 1e21 format switches — and from arbitrary bit patterns
// and ordinary magnitudes.
func randomFloat(rng *rand.Rand) float64 {
	edges := []float64{
		math.NaN(), math.Float64frombits(0x7FF8_0000_0000_0001), math.Float64frombits(0xFFF0_0000_0000_0001),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000F_FFFF_FFFF_FFFF),
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1e100,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1, -1, 123456789,
	}
	switch rng.IntN(4) {
	case 0:
		return edges[rng.IntN(len(edges))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(61)-30))
	}
}

// randomResult draws a Result over every encoding hazard: the floats
// of randomFloat everywhere, nil vs empty History and FinalParams,
// parameter vectors across the codec's chunk boundary, zero and
// negative counters, and kernels with HTML-escaped characters, quotes,
// backslashes, control bytes, non-ASCII runes and invalid UTF-8.
func randomResult(rng *rand.Rand) *Result {
	kernels := []string{"", "pair2", "fma4", `<&>"\`, "\xff\xfe", "tab\there", "é\u2028\u2029", "\x00\x1f\x7f", "\uFFFD"}
	intOf := func() int {
		switch rng.IntN(3) {
		case 0:
			return 0
		case 1:
			return rng.IntN(100)
		}
		return int(rng.Int64() - math.MaxInt64/2)
	}
	r := &Result{
		Diverged:                rng.IntN(2) == 0,
		DivergedRound:           intOf(),
		ByzantineSelectedRounds: intOf(),
		SelectionTrackedRounds:  intOf(),
		FinalTestAccuracy:       randomFloat(rng),
		FinalTestLoss:           randomFloat(rng),
		Kernel:                  kernels[rng.IntN(len(kernels))],
	}
	if rng.IntN(8) == 0 {
		b := make([]byte, rng.IntN(6))
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		r.Kernel = string(b)
	}
	if k := rng.IntN(8); k > 0 {
		r.History = make([]RoundStats, k-1)
		for i := range r.History {
			r.History[i] = RoundStats{
				Round: intOf(), TrainLoss: randomFloat(rng), UpdateNorm: randomFloat(rng), LearningRate: randomFloat(rng),
				ByzantineChosen: rng.IntN(2) == 0, Evaluated: rng.IntN(2) == 0,
				TestAccuracy: randomFloat(rng), TestLoss: randomFloat(rng),
			}
		}
	}
	switch rng.IntN(5) {
	case 0: // nil
	case 1:
		r.FinalParams = []float64{}
	default:
		r.FinalParams = make([]float64, rng.IntN(3*floatChunk))
		for i := range r.FinalParams {
			r.FinalParams[i] = randomFloat(rng)
		}
	}
	return r
}

// sameBits reports whether a and b carry the same encoded content, by
// bits: NaN payloads and signed zeros count, nil and empty History do
// too, nil and empty FinalParams do not (they encode alike).
func sameBits(a, b *Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if (a.History == nil) != (b.History == nil) || len(a.History) != len(b.History) || len(a.FinalParams) != len(b.FinalParams) {
		return false
	}
	for i, x := range a.History {
		y := b.History[i]
		if x.Round != y.Round || !eq(x.TrainLoss, y.TrainLoss) || !eq(x.UpdateNorm, y.UpdateNorm) ||
			!eq(x.LearningRate, y.LearningRate) || x.ByzantineChosen != y.ByzantineChosen ||
			x.Evaluated != y.Evaluated || !eq(x.TestAccuracy, y.TestAccuracy) || !eq(x.TestLoss, y.TestLoss) {
			return false
		}
	}
	for i := range a.FinalParams {
		if !eq(a.FinalParams[i], b.FinalParams[i]) {
			return false
		}
	}
	return a.Diverged == b.Diverged && a.DivergedRound == b.DivergedRound &&
		a.ByzantineSelectedRounds == b.ByzantineSelectedRounds && a.SelectionTrackedRounds == b.SelectionTrackedRounds &&
		eq(a.FinalTestAccuracy, b.FinalTestAccuracy) && eq(a.FinalTestLoss, b.FinalTestLoss) && a.Kernel == b.Kernel
}

// TestCodecMatchesReference pins the hand-written codec to the
// reflective reference (serialize_ref_test.go) on random results:
// AppendJSON, MarshalJSON through encoding/json and the reference
// write the same bytes, and the strict parser reads them back to what
// the reference decoder reads, bit for bit.
func TestCodecMatchesReference(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	rng := rand.New(rand.NewPCG(40, 1))
	for i := range trials {
		r := randomResult(rng)
		want, err := refMarshal(r)
		if err != nil {
			t.Fatalf("trial %d: reference marshal: %v", i, err)
		}
		if got := r.AppendJSON([]byte("prefix")); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("trial %d: AppendJSON\n got: %s\nwant: %s", i, got[6:], want)
		}
		if got, err := json.Marshal(r); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: json.Marshal (err %v)\n got: %s\nwant: %s", i, err, got, want)
		}
		ref, err := refUnmarshal(want)
		if err != nil {
			t.Fatalf("trial %d: reference unmarshal of %s: %v", i, want, err)
		}
		var back Result
		if err := back.UnmarshalJSON(want); err != nil {
			t.Fatalf("trial %d: UnmarshalJSON(%s): %v", i, want, err)
		}
		if !sameBits(&back, ref) {
			t.Fatalf("trial %d: parsed %+v, reference decoded %+v", i, back, *ref)
		}
	}
}

// TestUnmarshalRejectsOtherGrammar checks that the parser is strict:
// valid JSON for a Result in any other layout — whitespace, another
// field order, an unknown field, a missing required field, a false
// flag, a differently cased key, base64 with a line break — is an
// error, although encoding/json reads every one of them.
func TestUnmarshalRejectsOtherGrammar(t *testing.T) {
	r := sampleResult()
	r.Kernel = "pair2"
	good := r.AppendJSON(nil)
	var ok Result
	if err := ok.UnmarshalJSON(good); err != nil {
		t.Fatalf("canonical bytes rejected: %v", err)
	}
	for _, bad := range []string{
		" " + string(good),
		strings.Replace(string(good), `,"final_params_b64"`, `, "final_params_b64"`, 1),
		`{"final_test_accuracy":1,"history":null,"final_params_b64":"","final_test_loss":1}`,
		`{"history":null,"final_params_b64":"","final_test_accuracy":1,"final_test_loss":1,"extra":1}`,
		`{"history":null,"final_params_b64":"","final_test_accuracy":1}`,
		`{"history":null,"final_params_b64":"","diverged":false,"final_test_accuracy":1,"final_test_loss":1}`,
		`{"History":null,"final_params_b64":"","final_test_accuracy":1,"final_test_loss":1}`,
		`{"history":null,"final_params_b64":"AAAA\nAAAAAAA=","final_test_accuracy":1,"final_test_loss":1}`,
	} {
		if _, err := refUnmarshal([]byte(bad)); err != nil {
			t.Errorf("%s: the reference rejects it too (%v), so it pins nothing", bad, err)
		}
		var r Result
		if err := r.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("%s parsed; want an error", bad)
		}
	}
}
