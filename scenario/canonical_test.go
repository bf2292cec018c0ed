package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"krum/internal/core"
)

// canonicalForm is one case of testdata/canonical_forms.json: a spec as
// a caller spells it, and either the canonical JSON the result store's
// own resolvers produced for it before Canonical moved into this
// package, or the fact that they refused to key it. The literals were
// generated once, by that commit, and are never regenerated: a mismatch
// means a key moved. Two entries were corrected by hand since:
// krum(f=2) and minimaldiameter(f=2) at f = 3 had been given the bare
// name, the key of f = 3, and now carry their f. The rows marked
// "partial" — specs without a rule, schedule or workload, which once
// keyed the store's Monte-Carlo records — are all refused since those
// records went: a partial spec has no identity.
type canonicalForm struct {
	Spec      Spec            `json:"spec"`
	Canonical json.RawMessage `json:"canonical"`
	Refused   bool            `json:"refused"`
}

func loadCanonicalForms(tb testing.TB) []canonicalForm {
	tb.Helper()
	blob, err := os.ReadFile("testdata/canonical_forms.json")
	if err != nil {
		tb.Fatal(err)
	}
	var cases []canonicalForm
	if err := json.Unmarshal(blob, &cases); err != nil {
		tb.Fatal(err)
	}
	return cases
}

// TestCanonicalForms pins Spec.Canonical to the golden identities:
// every registry built-in under case, spacing and default-parameter
// variants, "" and "NONE" attacks and every sync spelling of the
// arrival axis. A refused spec fails Canonical, and so Validate.
func TestCanonicalForms(t *testing.T) {
	for i, tc := range loadCanonicalForms(t) {
		c, err := tc.Spec.Canonical()
		if tc.Refused {
			if err == nil {
				t.Errorf("case %d (%+v): canonicalized to %+v, want an error", i, tc.Spec, c)
			}
			if tc.Spec.Validate() == nil {
				t.Errorf("case %d (%+v): validates, want refused", i, tc.Spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d (%+v): %v", i, tc.Spec, err)
			continue
		}
		var want bytes.Buffer
		if err := json.Compact(&want, tc.Canonical); err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(c); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("case %d (%+v):\n got %s\nwant %s", i, tc.Spec, got, want.Bytes())
		}
		if again, err := c.Canonical(); err != nil || again != c {
			t.Errorf("case %d: not a fixed point: %+v → %+v (%v)", i, c, again, err)
		}
		if err := tc.Spec.Validate(); err != nil {
			t.Errorf("case %d (%+v): Validate = %v", i, tc.Spec, err)
		}
	}
}

// TestCanonicalRefusesEmptyAxes: Canonical is the one place that
// refuses a spec with no rule, schedule or workload, and Validate
// reports its refusal word for word.
func TestCanonicalRefusesEmptyAxes(t *testing.T) {
	cell := Spec{Workload: "gmm(k=3,dim=6)", Rule: "krum", Schedule: "const(gamma=0.1)", N: 9, F: 2, Rounds: 5, BatchSize: 4}
	for _, tc := range []struct {
		axis  string
		empty func(*Spec)
	}{
		{"rule", func(s *Spec) { s.Rule = "" }},
		{"schedule", func(s *Spec) { s.Schedule = "" }},
		{"workload", func(s *Spec) { s.Workload = "" }},
	} {
		s := cell
		tc.empty(&s)
		want := "empty " + tc.axis + " spec: " + ErrBadSpec.Error()
		if _, err := s.Canonical(); err == nil || err.Error() != want || !errors.Is(err, ErrBadSpec) {
			t.Errorf("Canonical without a %s: %v, want %q", tc.axis, err, want)
		}
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Errorf("Validate without a %s: %v, want %q", tc.axis, err, want)
		}
	}
}

// FuzzSpecCanonical: Canonical is idempotent on whatever it accepts,
// its rule re-parses to the rule the caller's spelling builds, and a
// spec that validates always canonicalizes. Workload factories
// refuse oversized specs before allocating, so the fuzzer needs no
// size guard.
func FuzzSpecCanonical(f *testing.F) {
	for _, tc := range loadCanonicalForms(f) {
		s := tc.Spec
		f.Add(s.Workload, s.Rule, s.Attack, s.Schedule, s.Arrival, s.N, s.F, s.Seed)
	}
	f.Fuzz(func(t *testing.T, wl, rule, atk, sched, arr string, n, fByz int, seed uint64) {
		s := Spec{Workload: wl, Rule: rule, Attack: atk, Schedule: sched, Arrival: arr, N: n, F: fByz, Rounds: 1, BatchSize: 1, Seed: seed}
		c, err := s.Canonical()
		if err != nil {
			if s.Validate() == nil {
				t.Fatalf("%+v validates but does not canonicalize: %v", s, err)
			}
			return
		}
		again, err := c.Canonical()
		if err != nil {
			t.Fatalf("canonical form %+v of %+v does not canonicalize: %v", c, s, err)
		}
		if again != c {
			t.Fatalf("Canonical not idempotent for %+v: %+v → %+v", s, c, again)
		}
		if s.Rule != "" {
			ctx := core.SpecContext{N: s.N, F: s.F}
			want, _ := core.ParseRuleIn(ctx, s.Rule)
			if got, err := core.ParseRuleIn(ctx, c.Rule); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("rule %q canonicalized to %q, which builds %#v, not %#v (%v)", s.Rule, c.Rule, got, want, err)
			}
		}
	})
}
