package workload

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"krum/internal/vec"
)

// TestParseRoundTrip: every built-in workload round-trips through its
// canonical Spec string.
func TestParseRoundTrip(t *testing.T) {
	ctx := SpecContext{Seed: 7}
	cases := []struct {
		spec string
		want string
	}{
		{"mnist", "mnist(size=16,hidden=48,noise=0.05)"},
		{"mnist(size=10,hidden=16)", "mnist(size=10,hidden=16,noise=0.05)"},
		{"mnistconv", "mnistconv(size=16,channels=8,hidden=32,noise=0.05)"},
		{"spambase", "spambase(spamrate=0.394)"},
		{"gmm", "gmm(k=3,dim=8,radius=4,sigma=0.5)"},
		{"gmm(k=4,dim=6)", "gmm(k=4,dim=6,radius=4,sigma=0.5)"},
		{"regression", "regression(in=12,out=1,noise=0.2)"},
		{"noniid(base=gmm,classes=2)", "noniid(base=gmm(k=3,dim=8,radius=4,sigma=0.5),classes=2)"},
		{"partition(base=gmm)", "partition(base=gmm(k=3,dim=8,radius=4,sigma=0.5))"},
	}
	for _, tc := range cases {
		w, err := Parse(ctx, tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if w.Spec != tc.want {
			t.Errorf("Parse(%q).Spec = %q, want %q", tc.spec, w.Spec, tc.want)
			continue
		}
		again, err := Parse(ctx, w.Spec)
		if err != nil {
			t.Errorf("round trip Parse(%q): %v", w.Spec, err)
			continue
		}
		if again.Spec != w.Spec {
			t.Errorf("round trip of %q: %q != %q", tc.spec, again.Spec, w.Spec)
		}
		if again.Description != w.Description {
			t.Errorf("%q: descriptions differ: %q != %q", tc.spec, again.Description, w.Description)
		}
		if w.Model.Dim() < 1 || w.Dataset.Dim() < 1 {
			t.Errorf("%q: degenerate workload %+v", tc.spec, w)
		}
	}
}

// TestSameSeedSameModel: parsing the same spec twice with the same seed
// yields identical model parameters — the determinism the scenario
// runner relies on.
func TestSameSeedSameModel(t *testing.T) {
	ctx := SpecContext{Seed: 42}
	a, err := Parse(ctx, "mnist(size=10,hidden=16)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(ctx, "mnist(size=10,hidden=16)")
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(a.Model.Params(nil), b.Model.Params(nil), 0) {
		t.Error("same spec + same seed produced different initial parameters")
	}
	c, err := Parse(SpecContext{Seed: 43}, "mnist(size=10,hidden=16)")
	if err != nil {
		t.Fatal(err)
	}
	if vec.ApproxEqual(a.Model.Params(nil), c.Model.Params(nil), 0) {
		t.Error("different seeds produced identical initial parameters")
	}
}

func TestParseMalformedSpecs(t *testing.T) {
	ctx := SpecContext{Seed: 1}
	bad := []string{
		"",
		"nosuchworkload",
		"mnist(",
		"mnist(size)",
		"mnist(size=x)",
		"mnist(zz=3)",
		"mnist(size=2)",        // below the generator minimum
		"mnist(hidden=0)",      // degenerate model
		"spambase(spamrate=2)", // prior outside (0, 1)
		"gmm(k=1)",             // too few classes
		"noniid",               // base required
		"noniid(classes=2)",    // base required
		"noniid(base=gmm)",     // classes required
		"noniid(base=gmm,classes=0)",
		"noniid(base=gmm,classes=3)",        // must keep a strict subset
		"noniid(base=nosuch,classes=1)",     // bad nested spec
		"noniid(base=regression,classes=1)", // base is not one-hot
		"partition",                         // base required
		"partition(base=gmm,classes=2)",     // no classes parameter
		"partition(base=nosuch)",            // bad nested spec
		"partition(base=regression)",        // base is not one-hot
		"partition(base=spambase)",          // base is not one-hot
		// A worker dealt a class the base never emits would redraw
		// forever: at n − f = 3 worker 2 gets class 2, which this base
		// never produces.
		"partition(base=noniid(base=gmm,classes=2))",
		"partition(base=partition(base=gmm))",
	}
	for _, s := range bad {
		if _, err := Parse(ctx, s); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Parse(%q) = %v, want wrapped ErrBadSpec", s, err)
		}
	}
}

// TestParseRefusesOversizedBeforeAllocating: a spec whose model or
// dataset would hold more than maxFloats floats is refused with
// ErrBadSpec by every built-in with a size parameter (spambase has
// none) — and before the build, so the refusal allocates under 1 MB
// where building mnist(size=1000,hidden=1000) would take 16 GB. The
// largest workload in use stays accepted.
func TestParseRefusesOversizedBeforeAllocating(t *testing.T) {
	ctx := SpecContext{Seed: 1}
	for _, s := range []string{
		"mnist(size=1000,hidden=1000)",
		"mnist(size=2048,hidden=1)",
		"mnist(size=9223372036854775807)",
		"mnistconv(size=1000,channels=8,hidden=32)",
		"gmm(k=3,dim=2000000)",
		"gmm(k=9223372036854775807,dim=1)",
		"regression(in=10000,out=1000)",
		"regression(in=9223372036854775807)",
		"noniid(base=mnist(size=1000,hidden=1000),classes=3)",
		"partition(base=mnist(size=1000,hidden=1000))",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(ctx, s)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("Parse(%q) = %v, want wrapped ErrBadSpec", s, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("Parse(%q) allocated %d bytes before refusing", s, grew)
		}
	}
	if _, err := Parse(ctx, "mnist(size=28,hidden=100)"); err != nil {
		t.Errorf("the largest workload in use is refused: %v", err)
	}
}

func TestNonIIDRestrictsClasses(t *testing.T) {
	w, err := Parse(SpecContext{Seed: 3}, "noniid(base=gmm(k=3,dim=4),classes=2)")
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(5)
	x := make([]float64, w.Dataset.Dim())
	y := make([]float64, w.Dataset.OutDim())
	for i := 0; i < 200; i++ {
		w.Dataset.Sample(rng, x, y)
		if cls := vec.Argmax(y); cls >= 2 {
			t.Fatalf("sample %d drew excluded class %d", i, cls)
		}
	}
}

// TestPartitionDealsClasses: partition keeps its base's dataset and
// model and asks for its classes to be dealt; no other built-in does.
func TestPartitionDealsClasses(t *testing.T) {
	ctx := SpecContext{Seed: 3}
	base, err := Parse(ctx, "gmm(k=3,dim=4)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Parse(ctx, "partition(base=gmm(k=3,dim=4))")
	if err != nil {
		t.Fatal(err)
	}
	if !w.DealClasses || base.DealClasses {
		t.Errorf("DealClasses: partition %v, its base %v; want true, false", w.DealClasses, base.DealClasses)
	}
	if w.Dataset.Dim() != base.Dataset.Dim() || w.Dataset.OutDim() != base.Dataset.OutDim() {
		t.Errorf("partition reshaped its base's dataset")
	}
	if got, want := w.Model.Params(nil), base.Model.Params(nil); !slices.Equal(got, want) {
		t.Error("partition's model differs from its base's under the same seed")
	}
}

func TestUsageListsEveryWorkload(t *testing.T) {
	usage := Usage()
	for _, name := range Names() {
		if !strings.Contains(usage, name) {
			t.Errorf("Usage() omits %q: %s", name, usage)
		}
	}
	if !strings.Contains(usage, "mnist(size,hidden,noise)") {
		t.Errorf("Usage() should document mnist parameters: %s", usage)
	}
}
