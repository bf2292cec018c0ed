package distsgd

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// The reference codec that defines the stable encoding: Result mirrored
// into JSON-tagged structs and handed to encoding/json. AppendJSON must
// write the bytes refMarshal writes, UnmarshalJSON must read them back
// as refUnmarshal does (serialize_test.go), and scenario.CanonicalResult
// must agree with refCanonical on every input (canonical_test.go).

// jsonFloat is a float64 that survives JSON: finite values marshal as
// ordinary numbers (shortest representation that round-trips exactly),
// NaN and the infinities marshal as the quoted strings "NaN", "+Inf"
// and "-Inf".
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = jsonFloat(math.NaN())
		case "+Inf":
			*f = jsonFloat(math.Inf(1))
		case "-Inf":
			*f = jsonFloat(math.Inf(-1))
		default:
			return fmt.Errorf("non-finite float string %q (want \"NaN\", \"+Inf\" or \"-Inf\")", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// roundStatsJSON mirrors RoundStats with JSON-safe floats.
type roundStatsJSON struct {
	Round           int       `json:"round"`
	TrainLoss       jsonFloat `json:"train_loss"`
	UpdateNorm      jsonFloat `json:"update_norm"`
	LearningRate    jsonFloat `json:"learning_rate"`
	ByzantineChosen bool      `json:"byzantine_chosen,omitempty"`
	Evaluated       bool      `json:"evaluated,omitempty"`
	TestAccuracy    jsonFloat `json:"test_accuracy"`
	TestLoss        jsonFloat `json:"test_loss"`
}

// resultJSON mirrors Result. FinalParams travels as base64-encoded raw
// little-endian float64 bits so that diverged parameter vectors
// (containing NaN/±Inf) and exact bit patterns survive the trip.
type resultJSON struct {
	History                 []roundStatsJSON `json:"history"`
	FinalParamsB64          string           `json:"final_params_b64"`
	Diverged                bool             `json:"diverged,omitempty"`
	DivergedRound           int              `json:"diverged_round,omitempty"`
	ByzantineSelectedRounds int              `json:"byzantine_selected_rounds,omitempty"`
	SelectionTrackedRounds  int              `json:"selection_tracked_rounds,omitempty"`
	FinalTestAccuracy       jsonFloat        `json:"final_test_accuracy"`
	FinalTestLoss           jsonFloat        `json:"final_test_loss"`
	Kernel                  string           `json:"kernel,omitempty"`
}

// refMarshal is the reference encoder.
func refMarshal(r *Result) ([]byte, error) {
	m := resultJSON{
		FinalParamsB64:          refEncodeFloats(r.FinalParams),
		Diverged:                r.Diverged,
		DivergedRound:           r.DivergedRound,
		ByzantineSelectedRounds: r.ByzantineSelectedRounds,
		SelectionTrackedRounds:  r.SelectionTrackedRounds,
		FinalTestAccuracy:       jsonFloat(r.FinalTestAccuracy),
		FinalTestLoss:           jsonFloat(r.FinalTestLoss),
		Kernel:                  r.Kernel,
	}
	if r.History != nil {
		m.History = make([]roundStatsJSON, len(r.History))
		for i, s := range r.History {
			m.History[i] = roundStatsJSON{
				Round:           s.Round,
				TrainLoss:       jsonFloat(s.TrainLoss),
				UpdateNorm:      jsonFloat(s.UpdateNorm),
				LearningRate:    jsonFloat(s.LearningRate),
				ByzantineChosen: s.ByzantineChosen,
				Evaluated:       s.Evaluated,
				TestAccuracy:    jsonFloat(s.TestAccuracy),
				TestLoss:        jsonFloat(s.TestLoss),
			}
		}
	}
	return json.Marshal(m)
}

// refUnmarshal is the reference decoder: anything encoding/json can
// read into resultJSON.
func refUnmarshal(b []byte) (*Result, error) {
	var m resultJSON
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	params, err := refDecodeFloats(m.FinalParamsB64)
	if err != nil {
		return nil, fmt.Errorf("final_params_b64: %w", err)
	}
	r := &Result{
		FinalParams:             params,
		Diverged:                m.Diverged,
		DivergedRound:           m.DivergedRound,
		ByzantineSelectedRounds: m.ByzantineSelectedRounds,
		SelectionTrackedRounds:  m.SelectionTrackedRounds,
		FinalTestAccuracy:       float64(m.FinalTestAccuracy),
		FinalTestLoss:           float64(m.FinalTestLoss),
		Kernel:                  m.Kernel,
	}
	if m.History != nil {
		r.History = make([]RoundStats, len(m.History))
		for i, s := range m.History {
			r.History[i] = RoundStats{
				Round:           s.Round,
				TrainLoss:       float64(s.TrainLoss),
				UpdateNorm:      float64(s.UpdateNorm),
				LearningRate:    float64(s.LearningRate),
				ByzantineChosen: s.ByzantineChosen,
				Evaluated:       s.Evaluated,
				TestAccuracy:    float64(s.TestAccuracy),
				TestLoss:        float64(s.TestLoss),
			}
		}
	}
	return r, nil
}

// refCanonical is the reference admission predicate: raw decodes AND
// re-encodes to itself, surrounding whitespace aside.
func refCanonical(raw []byte) ([]byte, bool) {
	r, err := refUnmarshal(raw)
	if err != nil {
		return nil, false
	}
	again, err := refMarshal(r)
	if err != nil {
		return nil, false
	}
	raw = bytes.TrimSpace(raw)
	return raw, bytes.Equal(raw, again)
}

// refEncodeFloats packs a float64 slice as base64(little-endian
// IEEE-754 bits).
func refEncodeFloats(v []float64) string {
	buf := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// refDecodeFloats reverses refEncodeFloats. An empty string decodes to
// nil.
func refDecodeFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("encoded length %d is not a multiple of 8", len(buf))
	}
	v := make([]float64, len(buf)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return v, nil
}
