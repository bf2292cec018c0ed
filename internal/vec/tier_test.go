package vec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// asmDirs are the packages holding assembly: this one and the
// rasteriser's.
var asmDirs = []string{".", filepath.Join("..", "..", "data")}

// TestEveryAsmKernelHasAProductionCaller keeps kernels only tests can
// reach out of the packages: every TEXT ·name of a package's .s files
// must be reachable, by name, from its non-test surface — exported
// functions, methods, init and package-level initialisers — through
// unexported functions of non-test files. A caller that is itself only
// called by tests does not count.
//
// The Box–Muller kernel must also serve mini-batches: it is reached
// from data.FillBatch through the batch path, with FillNormal — which
// one dataset's batch path and mnist's pixel noise call — cut out of
// the graph.
func TestEveryAsmKernelHasAProductionCaller(t *testing.T) {
	for _, dir := range asmDirs {
		checkAsmReachable(t, dir)
	}
	if !reachable(t, asmDirs, "FillBatch", "boxMullerAVX2", "FillNormal", "fillNormalLanes") {
		t.Error("boxMullerAVX2 is not reachable from data.FillBatch but through FillNormal")
	}
}

// reachable reports whether the non-test code of dirs reaches to from
// from, by name: functions and methods (of any receiver, in any of the
// packages) sharing a name are one node, and the nodes named by cut are
// never entered.
func reachable(t *testing.T, dirs []string, from, to string, cut ...string) bool {
	t.Helper()
	uses := map[string][]string{} // function or method → identifiers it mentions
	for _, dir := range dirs {
		sources, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, name := range sources {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							uses[fn.Name.Name] = append(uses[fn.Name.Name], id.Name)
						}
						return true
					})
				}
			}
		}
	}
	seen := map[string]bool{}
	for _, c := range cut {
		seen[c] = true
	}
	pending := []string{from}
	for len(pending) > 0 {
		id := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if id == to {
			return true
		}
		if !seen[id] {
			seen[id] = true
			pending = append(pending, uses[id]...)
		}
	}
	return false
}

func checkAsmReachable(t *testing.T, dir string) {
	uses := map[string][]string{} // unexported function → identifiers it mentions
	var pending []string          // identifiers the surface mentions
	sources, _ := filepath.Glob(filepath.Join(dir, "*.go"))
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
	asm, _ := filepath.Glob(filepath.Join(dir, "*.s"))
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
		t.Fatalf("%s: no TEXT symbol found: the scan is vacuous", dir)
	}
}

// TestLaneKernelsUnfused: the lane kernels promise the scalar loops'
// bits because every multiply and every add is rounded on its own, so
// no assembly of these packages may hold a fused multiply-add — except
// gram_avx2_amd64.s, whose fma4 lane order is made of them, and
// the exp block of raster_avx2_amd64.s (between "// exp: begin" and
// "// exp: end"), which is Exp's sequence in lanes: it must hold
// exactly Exp's fused steps, two VFNMADD231PD and then eight
// VFMADD213PD, as many as exp.go has math.FMA calls.
func TestLaneKernelsUnfused(t *testing.T) {
	fused := regexp.MustCompile(`(?m)^\s*((?:VFMADD|VFMSUB|VFNMADD|VFNMSUB)\w*)`)
	expSteps := append(slices.Repeat([]string{"VFNMADD231PD"}, 2), slices.Repeat([]string{"VFMADD213PD"}, 8)...)
	if n := countCalls(t, "exp.go", "math", "FMA"); n != len(expSteps) {
		t.Errorf("exp.go makes %d math.FMA calls, the exp block is held to %d fused ops", n, len(expSteps))
	}
	scanned, blocks := 0, 0
	for _, dir := range asmDirs {
		asm, _ := filepath.Glob(filepath.Join(dir, "*.s"))
		for _, name := range asm {
			if filepath.Base(name) == "gram_avx2_amd64.s" {
				continue
			}
			blob, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			scanned++
			src := string(blob)
			if filepath.Base(name) == "raster_avx2_amd64.s" {
				before, block, ok := strings.Cut(src, "// exp: begin")
				block, after, ok2 := strings.Cut(block, "// exp: end")
				if !ok || !ok2 {
					t.Fatalf("%s: no exp block", name)
				}
				blocks++
				var steps []string
				for _, m := range fused.FindAllStringSubmatch(block, -1) {
					steps = append(steps, m[1])
				}
				if !slices.Equal(steps, expSteps) {
					t.Errorf("%s: exp block's fused ops are %v, want Exp's %v", name, steps, expSteps)
				}
				src = before + after
			}
			for _, m := range fused.FindAllStringSubmatch(src, -1) {
				t.Errorf("%s: fused multiply-add %s", name, m[1])
			}
		}
	}
	if scanned < 4 || blocks != 1 {
		t.Fatalf("scanned %d assembly files and %d exp blocks: the scan is vacuous", scanned, blocks)
	}
}

// countCalls counts the calls of pkg.fn in the Go file name.
func countCalls(t *testing.T, name, pkg, fn string) int {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	ast.Inspect(file, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == fn {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
					n++
				}
			}
		}
		return true
	})
	return n
}

// TestAVX2KernelsStayVEX: a legacy SSE instruction that touches an XMM
// register while a YMM register's upper half is dirty costs an AVX/SSE
// state transition — hundreds of cycles on some cores, more than a
// whole short kernel call. So in every *_avx2_amd64.s of these packages
// no instruction naming an X or Y register may lack the V prefix
// between a TEXT line and its VZEROUPPER, nor anywhere in a #define
// body (a macro may be used anywhere; its uses are not instructions).
func TestAVX2KernelsStayVEX(t *testing.T) {
	vector := regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	scanned := 0
	for _, dir := range asmDirs {
		asm, _ := filepath.Glob(filepath.Join(dir, "*_avx2_amd64.s"))
		for _, name := range asm {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			scanned++
			dirty, continued := false, false
			for i, line := range strings.Split(string(src), "\n") {
				code, _, _ := strings.Cut(line, "//")
				define := strings.HasPrefix(code, "#define")
				inMacro := continued || define
				continued = inMacro && strings.HasSuffix(strings.TrimSpace(code), `\`)
				if define {
					continue
				}
				for _, stmt := range strings.Split(strings.TrimSuffix(strings.TrimSpace(code), `\`), ";") {
					fields := strings.Fields(stmt)
					if len(fields) == 0 {
						continue
					}
					switch op := fields[0]; {
					case op == "TEXT":
						dirty = true
					case op == "VZEROUPPER":
						dirty = false
					case (inMacro || dirty) && !strings.HasPrefix(op, "V") && !strings.Contains(op, "(") && vector.MatchString(stmt):
						t.Errorf("%s:%d: legacy SSE %q before VZEROUPPER", name, i+1, strings.TrimSpace(stmt))
					}
				}
			}
		}
	}
	if scanned < 4 {
		t.Fatalf("scanned %d AVX2 assembly files: the scan is vacuous", scanned)
	}
}

// TestParseTier pins the spec names round-tripping through String, the
// case/whitespace tolerance, and rejection of unknown names.
func TestParseTier(t *testing.T) {
	for _, tier := range []Tier{TierGo, TierAVX2} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", tier.String(), got, err, tier)
		}
	}
	if got, err := ParseTier("  AvX2 "); err != nil || got != TierAVX2 {
		t.Errorf("ParseTier with case/space = %v, %v; want TierAVX2", got, err)
	}
	for _, name := range []string{"avx9000", "avx512", "sse2"} {
		if _, err := ParseTier(name); err == nil {
			t.Errorf("ParseTier accepted the unknown tier name %q", name)
		}
	}
	if _, err := ParseTier(""); err == nil {
		t.Error("ParseTier accepted the empty string")
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
// tier carries ("avx512" was once reserved, "sse2" a tier; both are now
// just unknown) keeps the auto-detected tier and says so on stderr.
func TestEnvUnknownTierIgnored(t *testing.T) {
	const childEnv = "KRUM_TIER_TEST_CHILD"
	if os.Getenv(childEnv) != "" {
		os.Stdout.WriteString("active-tier=" + KernelTier().String() + "\n")
		return
	}
	auto := supportedTiers[len(supportedTiers)-1]
	for _, name := range []string{"avx512", "sse2"} {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestEnvUnknownTierIgnored$")
		cmd.Env = append(os.Environ(), tierEnv+"="+name, childEnv+"=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("child %s: %v\n%s", name, err, stderr.String())
		}
		if want := "active-tier=" + auto.String() + "\n"; !strings.Contains(stdout.String(), want) {
			t.Errorf("child stdout %q lacks %q: the unknown name %q changed the tier", stdout.String(), want, name)
		}
		if want := `ignoring KRUM_KERNEL_TIER="` + name + `": vec: unknown kernel tier`; !strings.Contains(stderr.String(), want) {
			t.Errorf("child stderr %q lacks the note %q", stderr.String(), want)
		}
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
