package vec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryAsmKernelHasAProductionCaller keeps kernels only tests can
// reach out of the package: every TEXT ·name of the .s files must be
// reachable, by name, from the package's non-test surface — exported
// functions, methods, init and package-level initialisers — through
// unexported functions of non-test files. A caller that is itself only
// called by tests does not count.
func TestEveryAsmKernelHasAProductionCaller(t *testing.T) {
	uses := map[string][]string{} // unexported function → identifiers it mentions
	var pending []string          // identifiers the surface mentions
	sources, _ := filepath.Glob("*.go")
	for _, name := range sources {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			var ids []string
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					ids = append(ids, id.Name)
				}
				return true
			})
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && !fn.Name.IsExported() && fn.Name.Name != "init" {
				uses[fn.Name.Name] = append(uses[fn.Name.Name], ids...)
			} else {
				pending = append(pending, ids...)
			}
		}
	}
	reached := map[string]bool{}
	for len(pending) > 0 {
		id := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if !reached[id] {
			reached[id] = true
			pending = append(pending, uses[id]...)
		}
	}
	asm, _ := filepath.Glob("*.s")
	kernels := 0
	for _, name := range asm {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(?m)^TEXT ·(\w+)\(SB\)`).FindAllSubmatch(src, -1) {
			kernels++
			if !reached[string(m[1])] {
				t.Errorf("%s: TEXT ·%s is not reachable from non-test code", name, m[1])
			}
		}
	}
	if kernels == 0 {
		t.Fatal("no TEXT symbol found: the scan is vacuous")
	}
}

// TestParseTier pins the spec names round-tripping through String, the
// case/whitespace tolerance, and rejection of unknown names.
func TestParseTier(t *testing.T) {
	for _, tier := range []Tier{TierGo, TierSSE2, TierAVX2} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", tier.String(), got, err, tier)
		}
	}
	if got, err := ParseTier("  AvX2 "); err != nil || got != TierAVX2 {
		t.Errorf("ParseTier with case/space = %v, %v; want TierAVX2", got, err)
	}
	for _, name := range []string{"avx9000", "avx512"} {
		if _, err := ParseTier(name); err == nil {
			t.Errorf("ParseTier accepted the unknown tier name %q", name)
		}
	}
	if _, err := ParseTier(""); err == nil {
		t.Error("ParseTier accepted the empty string")
	}
}

// TestTierOrder pins the order-family mapping the store salt and join
// handshake depend on: go and sse2 share pair2 (they are bit-identical,
// so sharing cached results is correct), avx2 alone is fma4.
func TestTierOrder(t *testing.T) {
	if TierGo.Order() != "pair2" || TierSSE2.Order() != "pair2" {
		t.Errorf("go/sse2 orders = %q/%q, want pair2/pair2", TierGo.Order(), TierSSE2.Order())
	}
	if TierAVX2.Order() != "fma4" {
		t.Errorf("avx2 order = %q, want fma4", TierAVX2.Order())
	}
	if TierGo.Order() == TierAVX2.Order() {
		t.Error("go and avx2 share an order family; the cross-tier salt would be vacuous")
	}
}

// TestAvailableTiers checks the availability set's invariants: TierGo
// is always present and first, the active tier is available, and
// TierAvailable agrees with the slice.
func TestAvailableTiers(t *testing.T) {
	tiers := AvailableTiers()
	if len(tiers) == 0 || tiers[0] != TierGo {
		t.Fatalf("AvailableTiers() = %v; want TierGo first", tiers)
	}
	if !TierAvailable(KernelTier()) {
		t.Errorf("active tier %v not in available set %v", KernelTier(), tiers)
	}
	for _, tier := range tiers {
		if !TierAvailable(tier) {
			t.Errorf("TierAvailable(%v) = false but AvailableTiers lists it", tier)
		}
	}
	// The returned slice is a copy: mutating it must not corrupt the
	// process's availability set.
	tiers[0] = noSuchTier
	if TierAvailable(noSuchTier) {
		t.Error("mutating AvailableTiers() result changed the availability set")
	}
}

// noSuchTier is a tier value no platform defines.
const noSuchTier = Tier(99)

// TestEnvUnknownTierIgnored pins the KRUM_KERNEL_TIER knob's
// unknown-name path end to end: a child process started with a name no
// tier carries ("avx512" was once reserved; it is now just unknown)
// keeps the auto-detected tier and says so on stderr.
func TestEnvUnknownTierIgnored(t *testing.T) {
	const childEnv = "KRUM_TIER_TEST_CHILD"
	if os.Getenv(childEnv) != "" {
		os.Stdout.WriteString("active-tier=" + KernelTier().String() + "\n")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestEnvUnknownTierIgnored$")
	cmd.Env = append(os.Environ(), tierEnv+"=avx512", childEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("child: %v\n%s", err, stderr.String())
	}
	auto := supportedTiers[len(supportedTiers)-1]
	if want := "active-tier=" + auto.String() + "\n"; !strings.Contains(stdout.String(), want) {
		t.Errorf("child stdout %q lacks %q: the unknown name changed the tier", stdout.String(), want)
	}
	if want := `ignoring KRUM_KERNEL_TIER="avx512": vec: unknown kernel tier`; !strings.Contains(stderr.String(), want) {
		t.Errorf("child stderr %q lacks the note %q", stderr.String(), want)
	}
}

// TestSetKernelTierRestore checks the force/restore protocol tests and
// the env-knob path rely on, and that unavailable tiers are refused
// without side effects.
func TestSetKernelTierRestore(t *testing.T) {
	initial := KernelTier()
	restore, err := SetKernelTier(TierGo)
	if err != nil {
		t.Fatalf("SetKernelTier(TierGo): %v", err)
	}
	if KernelTier() != TierGo {
		t.Errorf("after SetKernelTier(TierGo), KernelTier() = %v", KernelTier())
	}
	if _, err := SetKernelTier(noSuchTier); err == nil {
		t.Error("SetKernelTier accepted a tier this CPU does not have")
	}
	if KernelTier() != TierGo {
		t.Errorf("failed SetKernelTier changed the tier to %v", KernelTier())
	}
	restore()
	if KernelTier() != initial {
		t.Errorf("restore left tier %v, want %v", KernelTier(), initial)
	}
}

// TestKernelOrderMatchesTier ties the package-level shorthands to the
// active tier.
func TestKernelOrderMatchesTier(t *testing.T) {
	for _, tier := range AvailableTiers() {
		restore, err := SetKernelTier(tier)
		if err != nil {
			t.Fatalf("SetKernelTier(%v): %v", tier, err)
		}
		if KernelTier() != tier || KernelOrder() != tier.Order() {
			t.Errorf("forced %v: KernelTier()=%v KernelOrder()=%q", tier, KernelTier(), KernelOrder())
		}
		restore()
	}
}
