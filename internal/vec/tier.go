package vec

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// Kernel tiers. The Gram microkernels behind DistanceMatrix
// (dot4Block / dot24Block, see gram.go) exist in several
// implementations of increasing ISA requirements; exactly one — the
// tier — is active in a process at a time, selected once at init from
// CPU feature detection and the KRUM_KERNEL_TIER environment knob.
//
// The tier is more than a speed setting: each tier defines its own
// CANONICAL ACCUMULATION ORDER for an inner product (contract decision
// (a) of the ROADMAP — see gram.go), so results computed under
// different orders may differ in the low bits. Order identity, not
// tier identity, is therefore what the rest of the system keys on:
// Tier.Order() names the order family ("pair2" for go/sse2, "fma4"
// for avx2), the store salts every content-addressed key with it
// (scenario/store), distsgd records it in Result.Kernel, and the
// coordinator join handshake pins it exactly like store.Version — a
// heterogeneous fleet can share cached results between order-identical
// tiers (a pure-Go arm64 worker and an SSE2 amd64 worker agree bit for
// bit) but can never alias results across order families.

// Tier identifies one kernel implementation tier.
type Tier int32

const (
	// TierGo is the portable pure-Go tier: the "pair2" order's
	// interleaved even/odd two-accumulator sums. Always available.
	TierGo Tier = iota
	// TierSSE2 is the amd64 SSE2 assembly tier. Its two 64-bit XMM
	// lanes ARE TierGo's (even, odd) accumulator pair, so TierSSE2 and
	// TierGo share the "pair2" order and agree bit for bit.
	TierSSE2
	// TierAVX2 is the amd64 AVX2+FMA assembly tier: four YMM lanes of
	// fused multiply-adds (the "fma4" order — see gram.go). Fusing
	// removes the per-step product rounding, so TierAVX2 results differ
	// from pair2 tiers in the low bits (by less error, not more).
	TierAVX2
)

// String returns the tier's spec name — the value KRUM_KERNEL_TIER
// accepts and ParseTier inverts.
func (t Tier) String() string {
	switch t {
	case TierGo:
		return "go"
	case TierSSE2:
		return "sse2"
	case TierAVX2:
		return "avx2"
	}
	return fmt.Sprintf("tier(%d)", int32(t))
}

// Order returns the tier's canonical accumulation-order family id —
// the identity the store key salt, the Result.Kernel metadata field
// and the fleet join handshake carry. Tiers sharing an Order are
// bit-identical on every input (pinned by gram_test.go) and may freely
// share cached results; tiers with different Orders round differently
// and must never alias.
func (t Tier) Order() string {
	switch t {
	case TierAVX2:
		return "fma4"
	default:
		return "pair2"
	}
}

// ParseTier parses a tier spec name ("go", "sse2", "avx2"),
// case-insensitively.
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "go":
		return TierGo, nil
	case "sse2":
		return TierSSE2, nil
	case "avx2":
		return TierAVX2, nil
	}
	return TierGo, fmt.Errorf("vec: unknown kernel tier %q (want go|sse2|avx2)", s)
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
// family id — shorthand for KernelTier().Order().
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
// ops ("go", "sse2", "avx2"). An unknown or unavailable value keeps
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
