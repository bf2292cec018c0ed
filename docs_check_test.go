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
// in the README, so a deletion cannot leave its documentation behind.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
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
var lintedPackages = []string{"scenario/store", "scenario/shardproto", "cmd/krum-scenariod"}

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
