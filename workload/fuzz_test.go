package workload

import "testing"

// FuzzParseWorkload drives the workload-spec parser with arbitrary
// input: no input may panic, and any accepted spec must round-trip —
// the constructed workload's canonical Spec string reparses, under the
// same seed context, to the same Spec. Factories refuse specs over
// maxFloats before allocating, so the fuzzer needs no size guard.
func FuzzParseWorkload(f *testing.F) {
	for _, seed := range []string{
		"mnist", "mnist(size=10,hidden=16)", "mnistconv(size=12,channels=4)",
		"spambase", "spambase(spamrate=0.394)", "gmm(k=3,dim=6,radius=4,sigma=0.5)",
		"regression(dim=8)", "noniid(base=mnist(size=10,hidden=16),classes=3)",
		"partition(base=mnist(size=10,hidden=16))", "partition(base=noniid(base=gmm,classes=2))",
		"MNIST(SIZE=10)", " gmm ( k = 2 ) ",
		"", "(", "mnist(size=)", "mnist(size=0)", "mnist(size=-5)",
		"mnist(hidden=0)", "gmm(k=0)", "noniid(base=nosuchworkload)",
		"noniid(base=noniid(base=mnist))", "nosuchworkload", "mnist(size=8,size=9)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ctx := SpecContext{Seed: 1}
		w, err := Parse(ctx, s) // must not panic, whatever s is
		if err != nil {
			return
		}
		back, err := Parse(ctx, w.Spec)
		if err != nil {
			t.Fatalf("accepted spec %q produced canonical Spec %q that does not reparse: %v", s, w.Spec, err)
		}
		if back.Spec != w.Spec {
			t.Fatalf("Spec round-trip unstable for %q: %q -> %q", s, w.Spec, back.Spec)
		}
		if back.Name != w.Name {
			t.Fatalf("Name changed across reparse for %q: %q -> %q", s, w.Name, back.Name)
		}
	})
}
