package vec

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// expEdges are Exp's special and boundary inputs: signed zeros,
// infinities, NaN, the overflow threshold and its neighbours, the
// subnormal and underflow band's ends, and the tiniest inputs.
func expEdges() []float64 {
	const overflow = 7.09782712893384e+02
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		overflow, math.Nextafter(overflow, 0), math.Nextafter(overflow, 800),
		-708.3, -708.39641853226410622, -709.08956571282405153, -745.13321910194110842,
		-745.2, -1075 * math.Ln2, -1076 * math.Ln2,
		5e-324, -5e-324, 1e-300, -1e-300, 0x1p-54, -0x1p-54, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, -math.MaxInt32 * math.Ln2, -math.MaxInt64,
	}
	for _, x := range xs[:len(xs):len(xs)] {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			xs = append(xs, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
	}
	return xs
}

// expSeams returns, around every point where the reduction's k =
// round(x·log₂e) steps (x·log₂e a half-integer, every k Exp can reach)
// and the subnormal bands' ends, the inputs within a few ulps.
func expSeams() []float64 {
	var xs []float64
	for k := -1080; k <= 1025; k++ {
		seam := (float64(k) + 0.5) / math.Log2E
		x := seam
		for i := 0; i < 4; i++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for i := 0; i < 9; i++ {
			xs = append(xs, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	return xs
}

// expStream returns n inputs drawn from seed: a quarter uniform over
// [−750, 710], a quarter over the subnormal and underflow band [−745.2,
// −708.3], a quarter −u·v·1600 (Render's −t² at t up to 40, the
// shape of its inputs) and a quarter raw bit patterns. The products are
// rounded explicitly so no GOARCH fuses them.
func expStream(seed uint64, n int) []float64 {
	rng := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		switch i % 4 {
		case 0:
			xs[i] = -750 + float64(1460*rng.Float64())
		case 1:
			xs[i] = -745.2 + float64(36.9*rng.Float64())
		case 2:
			xs[i] = -float64(float64(rng.Float64()*rng.Float64()) * 1600)
		default:
			xs[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return xs
}

// mathExpTakesFMA reports whether math.Exp runs the FMA branch of
// exp_amd64.s here: on amd64, with AVX and FMA present and not switched
// off through GODEBUG.
func mathExpTakesFMA() bool {
	if runtime.GOARCH != "amd64" || !TierAvailable(TierAVX2) {
		return false
	}
	for _, opt := range strings.Split(os.Getenv("GODEBUG"), ",") {
		switch strings.TrimSpace(opt) {
		case "cpu.fma=off", "cpu.avx=off", "cpu.all=off":
			return false
		}
	}
	return true
}

// TestExpMatchesMath: where math.Exp takes the FMA branch Exp
// transcribes, the two agree bit for bit — on the edges, on every
// reduction seam and on 10⁷ drawn inputs.
func TestExpMatchesMath(t *testing.T) {
	if !mathExpTakesFMA() {
		t.Skip("math.Exp does not take its FMA branch on this host")
	}
	check := func(xs []float64) {
		t.Helper()
		bad := 0
		for _, x := range xs {
			got, want := Exp(x), math.Exp(x)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				if bad++; bad <= 10 {
					t.Errorf("Exp(%v) [%#x] = %v [%#x], math.Exp %v [%#x]", x, math.Float64bits(x),
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		if bad > 10 {
			t.Errorf("%d mismatches in all", bad)
		}
	}
	check(expEdges())
	check(expSeams())
	for part := uint64(0); part < 10; part++ {
		check(expStream(100+part, 1_000_000))
	}
}

// expPin is the SHA-256 of Exp over the edges, the seams and
// expStream(7, 2·10⁶), recorded on an FMA amd64 host where it equals
// math.Exp's. It must hold on every GOARCH and under
// GODEBUG=cpu.fma=off: Exp's bits are its own.
const expPin = "96d8fd047ac0f45241459c23bf2696a185358bfeacb17845d900a4422c3a29b6"

// TestExpPinned hashes Exp's outputs against expPin, and math.Exp's
// too where it takes the FMA branch.
func TestExpPinned(t *testing.T) {
	if got := expOutputsHash(Exp); got != expPin {
		t.Errorf("Exp outputs sha256 %s, want %s", got, expPin)
	}
	if mathExpTakesFMA() {
		if got := expOutputsHash(math.Exp); got != expPin {
			t.Errorf("math.Exp outputs sha256 %s, want %s", got, expPin)
		}
	}
}

func expOutputsHash(exp func(float64) float64) string {
	h := sha256.New()
	var word [8]byte
	for _, xs := range [][]float64{expEdges(), expSeams(), expStream(7, 2_000_000)} {
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(word[:0], math.Float64bits(exp(x))))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// BenchmarkExp times Exp against math.Exp on Render-shaped inputs.
func BenchmarkExp(b *testing.B) {
	xs := expStream(3, 4096)
	for i := range xs {
		xs[i] = -math.Abs(math.Mod(xs[i], 40))
	}
	for _, f := range []struct {
		name string
		exp  func(float64) float64
	}{{"vec", Exp}, {"math", math.Exp}} {
		b.Run(f.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += f.exp(xs[i%len(xs)])
			}
			_ = sink
		})
	}
}
