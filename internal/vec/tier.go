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
// The tier is a speed setting only: both tiers compute the one
// canonical accumulation order, "fma4" (KernelOrder; contract decision
// (a) of the ROADMAP — see gram.go), bit for bit, on every GOARCH.
// The store salts every content-addressed key with the order id,
// distsgd records it in Result.Kernel, and the coordinator join
// handshake pins it. The order does not yet fix every bit of a cell,
// though: Go's amd64 math.Exp, which the model's activations and
// losses still call (the rasteriser calls Exp, whose bits are its
// own), takes an FMA path on CPUs that have FMA whatever the tier,
// and the compiler may fuse x*y + z in Go loops on other GOARCHes
// (make fused-ops holds the tiles, Exp and accumulateRows to their
// math.FMA sites on arm64), so a worker on an FMA-less amd64 CPU or on
// arm64 can write different bytes under the same key as one on an FMA
// host (ROADMAP item 2 is the fix).

// Tier identifies one kernel implementation tier.
type Tier int32

const (
	// TierGo is the portable pure-Go tier: the four lanes as math.FMA
	// chains. Always available.
	TierGo Tier = iota
	// TierAVX2 is the amd64 AVX2+FMA assembly tier: the four lanes of
	// one YMM accumulator, several times faster than TierGo.
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

// KernelOrder returns the id of the canonical accumulation order every
// tier computes — the identity the store key salt, the Result.Kernel
// metadata field and the fleet join handshake carry.
func KernelOrder() string { return "fma4" }

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
// kernel-derived state is live is safe: every tier computes the same
// bits.
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
