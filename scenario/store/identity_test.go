package store

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"krum/scenario"
)

// TestStoreOnlyHashes is the layering guard: a cell's identity is
// resolved by scenario.Spec.Canonical, so no non-test file of this
// package may import a registry (or the workload builder behind one).
func TestStoreOnlyHashes(t *testing.T) {
	banned := map[string]bool{
		"krum/attack": true, "krum/internal/core": true, "krum/internal/sgd": true,
		"krum/internal/arrival": true, "krum/workload": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %s: resolve axes in scenario.Spec.Canonical, not in the store", name, path)
			}
		}
	}
}

// TestKeysRefuseWhatTheyRefused replays the refused specs of
// scenario/testdata/canonical_forms.json (written by the commit whose
// store still resolved axes itself): every spec it could not key —
// an unparsable axis, or a spec without a rule, schedule or workload —
// still has no key, and every spec it keyed still has one.
func TestKeysRefuseWhatTheyRefused(t *testing.T) {
	blob, err := os.ReadFile("../testdata/canonical_forms.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Spec    scenario.Spec `json:"spec"`
		Refused bool          `json:"refused"`
	}
	if err := json.Unmarshal(blob, &cases); err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		_, err := Key(tc.Spec)
		if tc.Refused && err == nil {
			t.Errorf("case %d (%+v): keyed, want refused", i, tc.Spec)
		}
		if !tc.Refused && err != nil {
			t.Errorf("case %d (%+v): %v", i, tc.Spec, err)
		}
	}
}

// TestKeysSeparateNonDefaultParameters: a rule parameter set away from
// its cluster-shape default is part of a cell's identity even where the
// rule's Name leaves it out. At n = 15, f = 3 each pair below builds two
// different rules whose cells differ in bytes, so they must not share a
// key; a spelling of the defaults still shares the bare name's key.
func TestKeysSeparateNonDefaultParameters(t *testing.T) {
	base := quickSpec()
	base.N, base.F = 15, 3
	keyed := func(rule string) (scenario.Spec, string) {
		s := base
		s.Rule = rule
		return s, mustKey(t, s)
	}
	for _, pair := range [][2]string{
		{"krum(f=5)", "krum"},
		{"multikrum(f=1,m=5)", "multikrum(m=5)"},
		{"bulyan(f=2)", "bulyan"},
		{"minimaldiameter(f=2)", "minimaldiameter"},
	} {
		a, ka := keyed(pair[0])
		b, kb := keyed(pair[1])
		if ka == kb {
			t.Errorf("%s and %s share key %s", pair[0], pair[1], ka)
		}
		ra, err := scenario.ComputeCell(a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := scenario.ComputeCell(b)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(ra)
		jb, _ := json.Marshal(rb)
		if string(ja) == string(jb) {
			t.Errorf("%s and %s computed the same bytes; the pair tests nothing", pair[0], pair[1])
		}
	}
	for _, same := range [][2]string{
		{"krum(f=3)", "krum"},
		{"multikrum(f=3,m=5)", "multikrum(m=5)"},
		{"bulyan(f=3)", "bulyan"},
	} {
		_, ka := keyed(same[0])
		if _, kb := keyed(same[1]); ka != kb {
			t.Errorf("%s and %s build the same rule but have different keys", same[0], same[1])
		}
	}
}
