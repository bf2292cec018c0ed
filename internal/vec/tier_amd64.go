//go:build amd64

package vec

// amd64 tier availability: the pure-Go tier always, AVX2 after a
// CPUID probe. The probe is hand-rolled (cpuid_amd64.s)
// rather than a dependency: three CPUID leaves and one XGETBV.

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-controlled extended-state enable mask.
// Only valid when CPUID.1:ECX.OSXSAVE is set.
func xgetbv0() uint64

// availableTiers probes the CPU once at init.
func availableTiers() []Tier {
	tiers := []Tier{TierGo}
	if cpuHasAVX2FMA() {
		tiers = append(tiers, TierAVX2)
	}
	return tiers
}

// cpuHasAVX2FMA reports whether the AVX2+FMA tier can run: the CPU must
// advertise AVX, FMA and AVX2, and the OS must have enabled YMM state
// saving (OSXSAVE set and XCR0 bits 1|2 — SSE and AVX state — granted),
// otherwise executing a VEX.256 instruction faults.
func cpuHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	const ymmState = 0x6 // XCR0[1] XMM + XCR0[2] YMM
	if xgetbv0()&ymmState != ymmState {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}
