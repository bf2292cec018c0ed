package core

import "testing"

// FuzzParseRule drives the rule-spec parser with arbitrary input. Two
// properties must hold on EVERY input: the parser never panics (it
// rejects with a wrapped ErrBadParameter instead), and any accepted
// spec round-trips — the constructed rule's Name() is itself a valid
// spec whose reparse yields the same Name (the stability contract the
// experiment tables and JSON scenario files rely on).
func FuzzParseRule(f *testing.F) {
	for _, seed := range []string{
		"krum", "krum(f=2)", "multikrum(f=2,m=5)", "krumk(k=3)",
		"average", "medoid", "coordmedian", "trimmedmean(b=1)",
		"geomedian", "minimaldiameter(f=2)",
		"bulyan(f=2)", "clippedmean",
		"KRUM(F=2)", " krum ( f = 2 ) ", "krum()",
		"", "(", ")", "krum(f=)", "krum(=2)", "krum(f=2", "krum)f=2(",
		"nosuchrule", "krum(f=2,f=3)", "krum(zzz=1)", "multikrum",
		// Parameters that became constants: rejected as unknown keys.
		"geomedian(maxiter=50,tol=1e-9)", "minimaldiameter(f=2,maxsubsets=100)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rule, err := ParseRule(s) // must not panic, whatever s is
		if err != nil {
			return
		}
		name := rule.Name()
		back, err := ParseRule(name)
		if err != nil {
			t.Fatalf("accepted spec %q produced Name %q that does not reparse: %v", s, name, err)
		}
		if got := back.Name(); got != name {
			t.Fatalf("Name round-trip unstable for spec %q: %q -> %q", s, name, got)
		}
	})
}

// FuzzParseRuleIn covers the contextual parser: cluster-shape defaults
// must never turn a non-panicking parse into a panic, and acceptance
// under a context still implies Name round-trip stability under the
// same context.
func FuzzParseRuleIn(f *testing.F) {
	f.Add("krum", 15, 3)
	f.Add("multikrum", 9, 2)
	f.Add("bulyan", 11, 2)
	f.Add("trimmedmean", 0, -1)
	f.Add("krum(f=4)", -5, 100)
	f.Fuzz(func(t *testing.T, s string, n, fByz int) {
		ctx := SpecContext{N: n, F: fByz}
		rule, err := ParseRuleIn(ctx, s)
		if err != nil {
			return
		}
		name := rule.Name()
		back, err := ParseRuleIn(ctx, name)
		if err != nil {
			t.Fatalf("accepted spec %q (ctx %+v) produced Name %q that does not reparse: %v", s, ctx, name, err)
		}
		if got := back.Name(); got != name {
			t.Fatalf("Name round-trip unstable for spec %q (ctx %+v): %q -> %q", s, ctx, name, got)
		}
	})
}
