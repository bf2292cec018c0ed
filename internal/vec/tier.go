package vec

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// Kernel tiers. The Gram microkernels behind DistanceMatrix
// (dot4Block / dot24Block, see gram.go) exist in two implementations;
// exactly one — the tier — is active in a process at a time, selected
// once at init from CPU feature detection and the KRUM_KERNEL_TIER
// environment knob.
//
// The tier is more than a speed setting: each tier defines its own
// CANONICAL ACCUMULATION ORDER for an inner product (contract decision
// (a) of the ROADMAP — see gram.go), so results computed under
// different orders may differ in the low bits. There is one tier per
// order: Tier.Order() names it ("pair2" for go, "fma4" for avx2), the
// store salts every content-addressed key with it (scenario/store),
// distsgd records it in Result.Kernel, and the coordinator join
// handshake pins it exactly like store.Version, so a fleet never
// aliases results across orders. An order does not yet fix every bit
// of a cell, though: Go's amd64 math.Exp, which the model's
// activations and losses still call (the rasteriser calls Exp, whose
// bits are its own), takes an FMA path on CPUs that have FMA whatever
// the tier, and the compiler may fuse x*y + z in Go loops on other
// GOARCHes (the Gram tiles write float64(x*y) against it, held by
// make tier-tests), so a go worker on an FMA-less amd64 CPU or on
// arm64 can write different bytes under the same key as one on an FMA
// host (ROADMAP item 2 is the fix).

// Tier identifies one kernel implementation tier.
type Tier int32

const (
	// TierGo is the portable pure-Go tier: the "pair2" order's
	// interleaved even/odd two-accumulator sums. Always available.
	TierGo Tier = iota
	// TierAVX2 is the amd64 AVX2+FMA assembly tier: four YMM lanes of
	// fused multiply-adds (the "fma4" order — see gram.go). Fusing
	// removes the per-step product rounding, so TierAVX2 results differ
	// from TierGo's in the low bits (by less error, not more).
	TierAVX2
)

// String returns the tier's spec name — the value KRUM_KERNEL_TIER
// accepts and ParseTier inverts.
func (t Tier) String() string {
	switch t {
	case TierGo:
		return "go"
	case TierAVX2:
		return "avx2"
	}
	return fmt.Sprintf("tier(%d)", int32(t))
}

// Order returns the tier's canonical accumulation-order id — the
// identity the store key salt, the Result.Kernel metadata field and
// the fleet join handshake carry. Each tier has its own Order; tiers
// round differently and their results must never alias.
func (t Tier) Order() string {
	switch t {
	case TierAVX2:
		return "fma4"
	default:
		return "pair2"
	}
}

// ParseTier parses a tier spec name ("go", "avx2"),
// case-insensitively.
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "go":
		return TierGo, nil
	case "avx2":
		return TierAVX2, nil
	}
	return TierGo, fmt.Errorf("vec: unknown kernel tier %q (want go|avx2)", s)
}

// currentTier holds the active tier. It is read on every microkernel
// dispatch (one atomic load against an O(d) inner product) and written
// only by init and SetKernelTier.
var currentTier atomic.Int32

// supportedTiers is the availability set probed once at init
// (availableTiers is per-GOARCH: CPUID on amd64, {go} elsewhere).
var supportedTiers = availableTiers()

// KernelTier returns the active kernel tier.
func KernelTier() Tier { return Tier(currentTier.Load()) }

// KernelOrder returns the active tier's canonical accumulation-order
// id — shorthand for KernelTier().Order().
func KernelOrder() string { return KernelTier().Order() }

// TierAvailable reports whether t can run on this process's CPU.
func TierAvailable(t Tier) bool {
	for _, s := range supportedTiers {
		if s == t {
			return true
		}
	}
	return false
}

// AvailableTiers returns the tiers this CPU supports, in ascending
// capability order (the last entry is the auto-selected default).
func AvailableTiers() []Tier {
	out := make([]Tier, len(supportedTiers))
	copy(out, supportedTiers)
	return out
}

// SetKernelTier activates tier t for every subsequent microkernel
// dispatch and returns a function restoring the previous tier. It
// errors (and changes nothing) if the CPU does not support t.
//
// The intended callers are process init (the KRUM_KERNEL_TIER knob)
// and tests forcing a tier around a battery; switching tiers while
// kernel-derived state is live is safe but subtle — an existing
// DistanceMatrix updated incrementally under a different tier than it
// was built under loses its bit-identical-to-rebuild guarantee, and
// store keys computed before the switch describe the old order. Force
// the tier first, compute after.
func SetKernelTier(t Tier) (restore func(), err error) {
	if !TierAvailable(t) {
		return nil, fmt.Errorf("vec: kernel tier %v not available on this CPU (have %v)", t, supportedTiers)
	}
	prev := currentTier.Swap(int32(t))
	return func() { currentTier.Store(prev) }, nil
}

// tierEnv is the environment knob forcing a kernel tier for tests and
// ops ("go", "avx2"). An unknown or unavailable value keeps
// the auto-detected tier (with a note on stderr) rather than failing:
// the CI tier matrix exports the knob unconditionally and hosts
// lacking an ISA must degrade gracefully, not break.
const tierEnv = "KRUM_KERNEL_TIER"

func init() {
	// Auto-select the most capable tier, then let the knob narrow it.
	best := supportedTiers[len(supportedTiers)-1]
	if v := os.Getenv(tierEnv); v != "" {
		t, err := ParseTier(v)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "vec: ignoring %s=%q: %v\n", tierEnv, v, err)
		case !TierAvailable(t):
			fmt.Fprintf(os.Stderr, "vec: ignoring %s=%q: tier unavailable on this CPU (have %v)\n", tierEnv, v, supportedTiers)
		default:
			best = t
		}
	}
	currentTier.Store(int32(best))
}
