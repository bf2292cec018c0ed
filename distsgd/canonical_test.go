package distsgd_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"krum/distsgd"
	"krum/scenario"
)

// gridSmallResult runs one cell of the tracked grid_small shape (a
// 20-round krum cell on a 3-class Gaussian mixture, n = 9, f = 2).
func gridSmallResult(tb testing.TB) *distsgd.Result {
	tb.Helper()
	res, err := scenario.ComputeCell(scenario.Spec{
		Workload: "gmm(k=3,dim=6,radius=4,sigma=0.5)", Rule: "krum", Schedule: "const(gamma=0.1)",
		N: 9, F: 2, Rounds: 20, BatchSize: 8, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mutate returns a copy of b with one byte replaced, inserted or
// deleted, the byte drawn mostly from the encoding's own alphabet so
// that many mutants stay valid JSON.
func mutate(rng *rand.Rand, b []byte) []byte {
	const alphabet = `0123456789-+.eE"\,:{}[]= nulltrueAIN/`
	c := alphabet[rng.IntN(len(alphabet))]
	if rng.IntN(4) == 0 {
		c = byte(rng.IntN(256))
	}
	i := rng.IntN(len(b) + 1)
	out := append([]byte(nil), b[:i]...)
	switch op := rng.IntN(3); {
	case op == 0 && i < len(b):
		out = append(append(out, c), b[i+1:]...)
	case op == 1 && i < len(b):
		out = append(out, b[i+1:]...)
	default:
		out = append(append(out, c), b[i:]...)
	}
	return out
}

// checkAgainstReference fails t unless scenario.CanonicalResult agrees
// with the reflective reference predicate on raw, bytes included, and
// unless every input the parser accepts re-encodes to canonical bytes
// that parse back to themselves.
func checkAgainstReference(t *testing.T, raw []byte) {
	t.Helper()
	got, ok := scenario.CanonicalResult(raw)
	want, wantOK := distsgd.RefCanonical(raw)
	if ok != wantOK || ok && !bytes.Equal(got, want) {
		t.Fatalf("CanonicalResult(%q) = %q, %v; the reference says %q, %v", raw, got, ok, want, wantOK)
	}
	var r distsgd.Result
	if r.UnmarshalJSON(bytes.Trim(raw, " \t\r\n")) != nil {
		return
	}
	enc := r.AppendJSON(nil)
	if _, ok := scenario.CanonicalResult(enc); !ok {
		t.Fatalf("%q parsed, but its encoding %q is not canonical", raw, enc)
	}
}

// TestCanonicalResultMatchesReference is the admission rule's
// differential: on random results and on single-byte mutants of their
// encodings, the one-pass CanonicalResult accepts exactly what the
// reflective decode-and-re-encode accepted.
func TestCanonicalResultMatchesReference(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	rng := rand.New(rand.NewPCG(40, 2))
	for range trials {
		enc := distsgd.RandomResult(rng).AppendJSON(nil)
		checkAgainstReference(t, enc)
		checkAgainstReference(t, mutate(rng, enc))
	}
}

// FuzzResultCodec holds CanonicalResult to the reference predicate on
// arbitrary input, seeded with canonical encodings and mutants of them.
func FuzzResultCodec(f *testing.F) {
	rng := rand.New(rand.NewPCG(40, 3))
	f.Add(gridSmallResult(f).AppendJSON(nil))
	for range 16 {
		enc := distsgd.RandomResult(rng).AppendJSON(nil)
		f.Add(enc)
		f.Add(mutate(rng, enc))
	}
	f.Add([]byte(` {"history":[],"final_params_b64":"","final_test_accuracy":"NaN","final_test_loss":-0}` + "\n"))
	f.Fuzz(checkAgainstReference)
}

// TestResultCodecAllocations counts, rather than times, the result
// path's allocations on a grid_small result: appending it to a buffer
// with room allocates nothing, and the canonical check allocates the
// parsed History and FinalParams and the re-encoding's buffer — three,
// whatever the number of rounds or parameters. A codec that went back
// to reflection would fail here on a count (it made 536 on this cell).
func TestResultCodecAllocations(t *testing.T) {
	res := gridSmallResult(t)
	enc := res.AppendJSON(nil)
	buf := make([]byte, 0, len(enc))
	if n := testing.AllocsPerRun(100, func() { buf = res.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a buffer with room: %v allocations, want 0", n)
	}
	if !bytes.Equal(buf, enc) {
		t.Fatal("AppendJSON is not deterministic")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := scenario.CanonicalResult(enc); !ok {
			t.Fatal("a fresh encoding is not canonical")
		}
	}); n != 3 {
		t.Errorf("CanonicalResult: %v allocations, want 3", n)
	}
}
