package krum_test

// Documentation drift guards, run as the blocking `make check-docs`
// target (and with the ordinary test suite): TestDocsRegistryBuiltins
// pins that every registered rule/attack/schedule/workload/arrival
// built-in is named in
// the user-facing docs AND still round-trips through its parser, so
// the spec tables in README.md and EXPERIMENTS.md cannot silently rot;
// TestDocsExportedIdentifiers is a doc-comment lint over the packages
// this repository added most recently (scenario/store,
// scenario/shardproto and cmd/krum-scenariod): every exported
// identifier, struct field included, must carry a doc comment;
// TestDocsPathsExist pins that every cmd/, examples/ and internal/
// path the docs name is on disk and every binary and example is listed
// in the README, so a deletion cannot leave its documentation behind;
// TestDocsFuzzTargetsListed pins that every native fuzz target runs in
// `make fuzz-smoke`; TestDocsMakefileTestPatternsMatch pins that every
// -run and -bench pattern in the Makefile still names a function;
// TestDocsChangesEntriesCapped caps the length of a CHANGES.md entry;
// TestDocsLineCaps caps the line counts of the three long documents.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"krum"
	"krum/attack"
	"krum/workload"
)

// usageNames extracts registry names from a generated Usage() line
// ("average | bulyan(f) | ..." → ["average", "bulyan", ...]).
func usageNames(usage string) []string {
	var out []string
	for _, part := range strings.Split(usage, "|") {
		name := strings.TrimSpace(part)
		if i := strings.IndexByte(name, '('); i >= 0 {
			name = name[:i]
		}
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// minimalSpec returns a parseable spec for a registry name: the bare
// name where defaults exist, otherwise the name with its minimum
// required parameters.
func minimalSpec(name string) string {
	switch name {
	case "krumk":
		return "krumk(k=2)"
	case "const", "inverset", "step":
		return name + "(gamma=0.1)"
	case "noniid":
		return "noniid(base=gmm(k=3,dim=4),classes=2)"
	case "partition":
		return "partition(base=gmm(k=3,dim=4))"
	case "bounded":
		return "bounded(tau=2)"
	case "bernoulli":
		return "bernoulli(tau=4)"
	default:
		return name
	}
}

// docsText concatenates the user-facing documents the registry tables
// live in.
func docsText(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, path := range []string{"README.md", "EXPERIMENTS.md", "ARCHITECTURE.md"} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s (run from the repository root): %v", path, err)
		}
		sb.Write(blob)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestDocsRegistryBuiltins checks, for every registry axis, that each
// built-in is (a) mentioned in the user-facing docs and (b) still
// constructible and round-tripping via its parser — the guarantee the
// docs promise ("Parse(x.Name()) reconstructs x").
func TestDocsRegistryBuiltins(t *testing.T) {
	docs := docsText(t)

	check := func(axis, name string, parse func(spec string) (string, error)) {
		t.Helper()
		if !strings.Contains(docs, name) {
			t.Errorf("%s %q is registered but named nowhere in README.md/EXPERIMENTS.md/ARCHITECTURE.md", axis, name)
		}
		canonical, err := parse(minimalSpec(name))
		if err != nil {
			t.Errorf("%s %q no longer parses: %v", axis, name, err)
			return
		}
		again, err := parse(canonical)
		if err != nil {
			t.Errorf("%s %q: canonical form %q does not re-parse: %v", axis, name, canonical, err)
			return
		}
		if again != canonical {
			t.Errorf("%s %q: canonical form not a fixed point: %q → %q", axis, name, canonical, again)
		}
	}

	for _, name := range usageNames(krum.RuleUsage()) {
		check("rule", name, func(spec string) (string, error) {
			r, err := krum.ParseRuleIn(krum.SpecContext{N: 15, F: 3}, spec)
			if err != nil {
				return "", err
			}
			return r.Name(), nil
		})
	}
	for _, name := range usageNames(attack.Usage()) {
		check("attack", name, func(spec string) (string, error) {
			a, err := attack.Parse(spec)
			if err != nil {
				return "", err
			}
			return a.Name(), nil
		})
	}
	for _, name := range usageNames(krum.ScheduleUsage()) {
		check("schedule", name, func(spec string) (string, error) {
			s, err := krum.ParseSchedule(spec)
			if err != nil {
				return "", err
			}
			return s.Name(), nil
		})
	}
	for _, name := range usageNames(workload.Usage()) {
		check("workload", name, func(spec string) (string, error) {
			w, err := workload.Parse(workload.SpecContext{Seed: 1}, spec)
			if err != nil {
				return "", err
			}
			return w.Spec, nil
		})
	}
	for _, name := range usageNames(krum.ArrivalUsage()) {
		check("arrival", name, func(spec string) (string, error) {
			p, err := krum.ParseArrival(spec)
			if err != nil {
				return "", err
			}
			return p.Name(), nil
		})
	}
}

// lintedPackages are the directories held to the every-exported-
// identifier-documented standard.
var lintedPackages = []string{"scenario", "scenario/store", "scenario/shardproto", "distsgd", "cmd/krum-scenariod"}

// TestDocsExportedIdentifiers fails for any exported declaration in
// the linted packages — function, method, type, const, var, or struct
// field — that lacks a doc comment.
func TestDocsExportedIdentifiers(t *testing.T) {
	for _, dir := range lintedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			sawPackageDoc := false
			for _, file := range pkg.Files {
				if file.Doc != nil {
					sawPackageDoc = true
				}
				lintFile(t, fset, file)
			}
			if !sawPackageDoc {
				t.Errorf("%s: package %s has no package-level doc comment", dir, pkg.Name)
			}
		}
	}
}

// lintFile reports every undocumented exported declaration in one file.
func lintFile(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	pos := func(n ast.Node) string { return fset.Position(n.Pos()).String() }
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				t.Errorf("%s: exported func %s has no doc comment", pos(d), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
						t.Errorf("%s: exported type %s has no doc comment", pos(sp), sp.Name.Name)
					}
					if st, ok := sp.Type.(*ast.StructType); ok && sp.Name.IsExported() {
						lintFields(t, fset, sp.Name.Name, st)
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							t.Errorf("%s: exported %s %s has no doc comment",
								pos(sp), strings.ToLower(d.Tok.String()), name.Name)
						}
					}
				}
			}
		}
	}
}

// lintFields reports undocumented exported fields of an exported
// struct type.
func lintFields(t *testing.T, fset *token.FileSet, typeName string, st *ast.StructType) {
	t.Helper()
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.IsExported() && field.Doc == nil && field.Comment == nil {
				t.Errorf("%s: exported field %s.%s has no doc comment",
					fset.Position(field.Pos()), typeName, name.Name)
			}
		}
	}
}

// docPath matches a repository path under cmd/, examples/ or internal/
// down to its first component below that directory.
var docPath = regexp.MustCompile(`\b(cmd|examples|internal)/[A-Za-z0-9_.-]+`)

// TestDocsPathsExist is the path drift guard: every cmd/<name>,
// examples/<name> and internal/<name> written in the user-facing docs
// and the verify skill must exist, and every directory under cmd/ and
// examples/ must be named in README's "Binaries & examples". The one
// exemption is a deletion-ledger row (a table line whose verdict is
// **deleted**, as in EXPERIMENTS.md), which names what it removed.
func TestDocsPathsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s (run from the repository root): %v", doc, err)
		}
		for i, line := range strings.Split(string(blob), "\n") {
			if strings.HasPrefix(line, "|") && strings.Contains(line, "**deleted**") {
				continue
			}
			for _, path := range docPath.FindAllString(line, -1) {
				path = strings.TrimRight(path, ".")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, path)
				}
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "\n## Binaries & examples\n")
	if !found {
		t.Fatal(`README.md has no "Binaries & examples" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, dir := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !strings.Contains(section, dir+"/"+e.Name()) {
				t.Errorf(`%s/%s is not named in README.md "Binaries & examples"`, dir, e.Name())
			}
		}
	}
}

// fuzzSmokeLine matches one `go test -fuzz` line of the Makefile's
// fuzz-smoke recipe: the target name and the package it runs in.
var fuzzSmokeLine = regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' .* (\./\S*)\s*$`)

// fuzzFunc matches a native fuzz target's declaration.
var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(f \*testing\.F\)`)

// TestDocsFuzzTargetsListed fails when a `func Fuzz*` anywhere in the
// tree is not run, in its own package, by `make fuzz-smoke`: a target
// nobody runs keeps only its seed corpus.
func TestDocsFuzzTargetsListed(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, found := strings.Cut(string(makefile), "\nfuzz-smoke:\n")
	if !found {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	listed := map[string]string{} // target → package
	for _, line := range strings.Split(recipe, "\n") {
		if m := fuzzSmokeLine.FindStringSubmatch(line); m != nil {
			listed[m[1]] = filepath.Clean(m[2])
		}
	}
	targets := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // VCS, build caches, fixtures
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			targets++
			if pkg, ok := listed[m[1]]; !ok || pkg != filepath.Dir(path) {
				t.Errorf("%s: %s is not run in ./%s by make fuzz-smoke", path, m[1], filepath.Dir(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Error("found no fuzz targets: the scan is broken")
	}
}

// makeVar matches a Makefile variable definition (NAME ?= value).
var makeVar = regexp.MustCompile(`(?m)^(\w+) \??= (.*)$`)

// testPattern matches a quoted -run or -bench pattern of a `go test`
// line.
var testPattern = regexp.MustCompile(`-(run|bench) '([^']*)'`)

// testFuncNames returns the names of the test, fuzz and example
// functions (run) or benchmarks (bench) declared in dir's _test.go
// files — or, for a dir/... pattern, in every package below dir.
func testFuncNames(t *testing.T, dir, flag string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	if flag == "bench" {
		decl = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	}
	root, recursive := strings.CutSuffix(dir, "/...")
	var names []string
	err := filepath.WalkDir(filepath.Clean(root), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != filepath.Clean(root) && (!recursive || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsMakefileTestPatternsMatch fails when a -run or -bench pattern
// in the Makefile has an alternative that names no function in the
// packages its line lists: `go test -run X` passes when X matches
// nothing, so a renamed or deleted test would otherwise shrink a gate
// silently. The `^$` (run nothing) and `.` (run everything) idioms are
// exempt.
func TestDocsMakefileTestPatternsMatch(t *testing.T) {
	blob, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	makefile := strings.ReplaceAll(string(blob), "\\\n", " ")
	vars := map[string]string{}
	for _, m := range makeVar.FindAllStringSubmatch(makefile, -1) {
		vars[m[1]] = strings.TrimSpace(m[2])
	}
	patterns := 0
	for _, line := range strings.Split(makefile, "\n") {
		if !strings.Contains(line, "$(GO) test") {
			continue
		}
		var pkgs []string
		for _, field := range strings.Fields(line) {
			if field == "." || strings.HasPrefix(field, "./") {
				pkgs = append(pkgs, field)
			}
		}
		for _, m := range testPattern.FindAllStringSubmatch(line, -1) {
			flag, pattern := m[1], m[2]
			for name, value := range vars {
				pattern = strings.ReplaceAll(pattern, "$("+name+")", value)
			}
			pattern = strings.ReplaceAll(pattern, "$$", "$")
			if pattern == "^$" || pattern == "." {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				patterns++
				top, _, _ := strings.Cut(alt, "/") // a subtest path names its top-level test first
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("Makefile -%s alternative %q: %v", flag, alt, err)
					continue
				}
				found := false
				for _, pkg := range pkgs {
					found = found || slices.ContainsFunc(testFuncNames(t, pkg, flag), re.MatchString)
				}
				if !found {
					t.Errorf("Makefile -%s alternative %q names no function in %v:\n%s", flag, alt, pkgs, strings.TrimSpace(line))
				}
			}
		}
	}
	if patterns == 0 {
		t.Error("found no -run or -bench patterns: the scan is broken")
	}
}

// changesEntry matches the first line of a CHANGES.md entry and
// captures its number.
var changesEntry = regexp.MustCompile(`^PR (\d+) `)

// TestDocsChangesEntriesCapped fails a CHANGES.md entry numbered 45 or
// later that is longer than 1 200 bytes: an entry says what changed and
// how it was checked, and its measurements live in EXPERIMENTS.md.
// Earlier entries predate the cap.
func TestDocsChangesEntriesCapped(t *testing.T) {
	const firstCapped, maxBytes = 45, 1200
	blob, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, line := range strings.Split(string(blob), "\n") {
		m := changesEntry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		entries++
		if n, _ := strconv.Atoi(m[1]); n >= firstCapped && len(line) > maxBytes {
			t.Errorf("CHANGES.md entry %d is %d bytes, over the %d-byte cap", n, len(line), maxBytes)
		}
	}
	if entries == 0 {
		t.Error("found no CHANGES.md entries: the scan is broken")
	}
}

// docLineCaps are the line counts README.md, ARCHITECTURE.md and
// EXPERIMENTS.md may not exceed: their sizes when the cap was set. A
// change that adds prose pays for it by trimming; one that trims
// lowers the cap here.
var docLineCaps = map[string]int{"README.md": 633, "ARCHITECTURE.md": 922, "EXPERIMENTS.md": 1717}

// TestDocsLineCaps fails a long document that grew past its cap.
func TestDocsLineCaps(t *testing.T) {
	for name, limit := range docLineCaps {
		blob, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(blob), "\n"); n > limit {
			t.Errorf("%s has %d lines, over its cap of %d: trim it", name, n, limit)
		}
	}
}
