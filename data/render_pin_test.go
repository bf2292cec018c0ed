package data

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"krum/internal/vec"
)

// renderPins are SHA-256 digests of renderImagesHash's streams, taken
// when Render's intensity pass still called math.Exp on an FMA host.
// They hold the rasteriser's bits still across the switch to vec.Exp
// (in Render's lanes, its Go loop and renderReference alike) and hold
// them on hosts and GOARCHes whose math.Exp rounds differently.
var renderPins = map[string]string{
	"size=9/noise=0":     "642d04eec88244f80dc5a0fec3e0ce1c020eff8b2493c38bda8188951a8349c4",
	"size=9/noise=0.05":  "a441c739421864f56f5487007b9b076f295a7c3ca8422a1301f6332c1979d157",
	"size=16/noise=0":    "cc0661d0491a7dd4a6724deccaf6b975120fc515ec4a1159c300c76c2a0cff3d",
	"size=16/noise=0.05": "600820cf6a68f0dadb3811eb4e748eb7813380811fa71ad80374740e6c033acc",
	"size=28/noise=0":    "20fdeb5c852e3795f7c64d1dc8d124bdf052b6b9f23dc40ab5e382c40234c4b6",
	"size=28/noise=0.05": "342d5c3e41eecaba834702c994769a40286032ebaa7883d12581f0ab2ba2e097",
}

// renderImagesHash renders 20 instances of every digit from a seeded
// generator, through render, and hashes every pixel's bits in order,
// then the generator's next word.
func renderImagesHash(t *testing.T, size int, noise float64, render func(*SyntheticMNIST, *vec.RNG, int, []float64)) string {
	m, err := NewSyntheticMNIST(size, noise)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(uint64(1000*size) + uint64(noise*100))
	img := make([]float64, m.Dim())
	h := sha256.New()
	var word [8]byte
	for k := 0; k < 20; k++ {
		for digit := 0; digit < 10; digit++ {
			render(m, rng, digit, img)
			for _, p := range img {
				h.Write(binary.LittleEndian.AppendUint64(word[:0], math.Float64bits(p)))
			}
		}
	}
	h.Write(binary.LittleEndian.AppendUint64(word[:0], rng.Uint64()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRenderPinned checks Render under every tier, and renderReference,
// against renderPins at sizes 9, 16 and 28, without noise and with the
// default noise.
func TestRenderPinned(t *testing.T) {
	for _, size := range []int{9, 16, 28} {
		for _, noise := range []float64{0, 0.05} {
			key := fmt.Sprintf("size=%d/noise=%g", size, noise)
			t.Run(key, func(t *testing.T) {
				want := renderPins[key]
				if got := renderImagesHash(t, size, noise, renderReference); got != want {
					t.Errorf("renderReference: sha256 %s, want %s", got, want)
				}
				forEachTier(t, func(t *testing.T) {
					render := (*SyntheticMNIST).Render
					if got := renderImagesHash(t, size, noise, render); got != want {
						t.Errorf("Render: sha256 %s, want %s", got, want)
					}
				})
			})
		}
	}
}
