package core

import (
	"errors"
	"strings"
	"testing"

	"krum/internal/vec"
)

// TestParseRuleRoundTrip: a rule built from a spec reports a Name()
// that is itself a valid spec reconstructing an identically-named rule.
func TestParseRuleRoundTrip(t *testing.T) {
	ctx := SpecContext{N: 15, F: 3}
	cases := []struct {
		spec string
		name string
	}{
		{"krum", "krum"},
		{"krum(f=2)", "krum"},
		{"multikrum(f=2,m=5)", "multikrum(m=5)"},
		{"multikrum", "multikrum(m=12)"}, // m defaults to n − f
		{"krumk(k=4)", "krumk(k=4)"},
		{"average", "average"},
		{"medoid", "medoid"},
		{"coordmedian", "coordmedian"},
		{"trimmedmean(b=2)", "trimmedmean(b=2)"},
		{"trimmedmean", "trimmedmean(b=3)"}, // b defaults to f
		{"geomedian", "geomedian"},
		{"minimaldiameter", "minimaldiameter"},
		{"bulyan(f=1)", "bulyan"},
		{"clippedmean", "clippedmean"},
	}
	for _, tc := range cases {
		rule, err := ParseRuleIn(ctx, tc.spec)
		if err != nil {
			t.Errorf("ParseRuleIn(%q): %v", tc.spec, err)
			continue
		}
		if rule.Name() != tc.name {
			t.Errorf("ParseRuleIn(%q).Name() = %q, want %q", tc.spec, rule.Name(), tc.name)
			continue
		}
		// Round trip: the reported name parses back to the same name.
		again, err := ParseRuleIn(ctx, rule.Name())
		if err != nil {
			t.Errorf("round trip ParseRuleIn(%q): %v", rule.Name(), err)
			continue
		}
		if again.Name() != rule.Name() {
			t.Errorf("round trip of %q: %q != %q", tc.spec, again.Name(), rule.Name())
		}
	}
}

func TestParseRuleUnknownName(t *testing.T) {
	_, err := ParseRule("nosuchrule")
	if !errors.Is(err, ErrBadParameter) {
		t.Fatalf("unknown rule error = %v, want ErrBadParameter", err)
	}
	if !strings.Contains(err.Error(), "krum") {
		t.Errorf("error should list registered names, got: %v", err)
	}
}

func TestParseRuleMalformedSpecs(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"krum(",
		"krum(f=2",
		"krum)",
		"krum(f)",
		"krum(f=)",
		"krum(=2)",
		"(f=2)",
		"krum(f=2,f=3)",    // duplicate key
		"krum(f=x)",        // non-integer value
		"krum(zz=3)",       // unknown parameter
		"krumk",            // k is required
		"multikrum",        // m required without context
		"multikrum(m=0)",   // out of range
		"geomedian(tol=x)", // non-numeric float
		// Weiszfeld's bounds and the subset guard are constants, not
		// parameters.
		"geomedian(maxiter=50,tol=1e-9)",
		"minimaldiameter(f=2,maxsubsets=100)",
	}
	for _, spec := range bad {
		if _, err := ParseRule(spec); !errors.Is(err, ErrBadParameter) {
			t.Errorf("ParseRule(%q) = %v, want wrapped ErrBadParameter", spec, err)
		}
	}
}

// TestRegistryCaseStable: names and parameter keys are normalized, so
// lookups are stable under case changes.
func TestRegistryCaseStable(t *testing.T) {
	for _, spec := range []string{"krum", "Krum", "KRUM", "Krum(F=2)"} {
		rule, err := ParseRule(spec)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", spec, err)
		}
		if rule.Name() != "krum" {
			t.Errorf("ParseRule(%q).Name() = %q, want krum", spec, rule.Name())
		}
	}
	if _, ok := Lookup("MultiKrum"); !ok {
		t.Error("Lookup is not case-stable")
	}
	for _, name := range Names() {
		if name != strings.ToLower(name) {
			t.Errorf("registered name %q is not lower case", name)
		}
	}
}

func TestParseRuleContextDefaults(t *testing.T) {
	rule, err := ParseRuleIn(SpecContext{N: 15, F: 3}, "krum")
	if err != nil {
		t.Fatal(err)
	}
	if k := rule.(*Krum); k.F != 3 {
		t.Errorf("krum F = %d, want 3 from context", k.F)
	}
	rule, err = ParseRuleIn(SpecContext{N: 15, F: 3}, "multikrum")
	if err != nil {
		t.Fatal(err)
	}
	if mk := rule.(*MultiKrum); mk.F != 3 || mk.M != 12 {
		t.Errorf("multikrum = F %d M %d, want F 3 M 12", mk.F, mk.M)
	}
	// Bulyan's default f clamps to what the cluster supports (n ≥ 4f+3).
	rule, err = ParseRuleIn(SpecContext{N: 9, F: 3}, "bulyan")
	if err != nil {
		t.Fatal(err)
	}
	if b := rule.(*Bulyan); b.F != 1 {
		t.Errorf("bulyan default F = %d, want clamp to 1 at n = 9", b.F)
	}
	// An explicit f is taken verbatim, no clamping.
	rule, err = ParseRuleIn(SpecContext{N: 9, F: 3}, "bulyan(f=3)")
	if err != nil {
		t.Fatal(err)
	}
	if b := rule.(*Bulyan); b.F != 3 {
		t.Errorf("bulyan explicit F = %d, want 3", b.F)
	}
}

// TestEveryRegisteredRuleAggregates smoke-tests the whole registry at a
// common operating point.
func TestEveryRegisteredRuleAggregates(t *testing.T) {
	const n, d = 15, 6
	ctx := SpecContext{N: n, F: 3}
	rng := vec.NewRNG(5)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	dst := make([]float64, d)
	for _, name := range Names() {
		spec := name
		if name == "krumk" {
			spec = "krumk(k=3)" // k has no default by design
		}
		rule, err := ParseRuleIn(ctx, spec)
		if err != nil {
			t.Errorf("ParseRuleIn(%q): %v", spec, err)
			continue
		}
		if err := rule.Aggregate(dst, vs); err != nil {
			t.Errorf("%s.Aggregate: %v", spec, err)
		}
		if !vec.AllFinite(dst) {
			t.Errorf("%s produced non-finite output", spec)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, f Factory) {
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		Register(name, f)
	}
	expectPanic("", Factory{New: func(SpecContext, Args) (Rule, error) { return Average{}, nil }})
	expectPanic("nilconstructor", Factory{})
	expectPanic("krum", Factory{New: func(SpecContext, Args) (Rule, error) { return Average{}, nil }}) // duplicate
}

func TestUsageListsEveryRule(t *testing.T) {
	usage := Usage()
	for _, name := range Names() {
		if !strings.Contains(usage, name) {
			t.Errorf("Usage() omits %q: %s", name, usage)
		}
	}
	// Parameterized rules advertise their parameters.
	if !strings.Contains(usage, "multikrum(f,m)") {
		t.Errorf("Usage() should document multikrum parameters: %s", usage)
	}
}
