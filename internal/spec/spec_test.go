package spec

import (
	"errors"
	"strings"
	"testing"
)

var errTest = errors.New("test: bad parameter")

type widget struct {
	Size  int
	Ratio float64
	Base  string
}

type testCtx struct{ DefSize int }

func newTestRegistry(t *testing.T) *Registry[*widget, testCtx] {
	t.Helper()
	r := NewRegistry[*widget, testCtx]("widget", errTest)
	r.Register("box", Factory[*widget, testCtx]{
		Params: []string{"size", "ratio", "base"},
		Doc:    "a box",
		New: func(ctx testCtx, a Args) (*widget, error) {
			size, err := a.Int("size", ctx.DefSize)
			if err != nil {
				return nil, err
			}
			ratio, err := a.Float("ratio", 1)
			if err != nil {
				return nil, err
			}
			return &widget{Size: size, Ratio: ratio, Base: a.String("base", "")}, nil
		},
	})
	r.Register("dot", Factory[*widget, testCtx]{
		Doc: "parameterless",
		New: func(testCtx, Args) (*widget, error) { return &widget{}, nil },
	})
	return r
}

func TestRegistryParse(t *testing.T) {
	r := newTestRegistry(t)
	w, err := r.Parse(testCtx{DefSize: 7}, "box(ratio=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	if w.Size != 7 || w.Ratio != 0.5 {
		t.Errorf("widget = %+v", w)
	}
	// Case-insensitive names and keys.
	w, err = r.Parse(testCtx{}, "BOX(Size=3)")
	if err != nil {
		t.Fatal(err)
	}
	if w.Size != 3 {
		t.Errorf("widget = %+v", w)
	}
}

func TestRegistryParseErrorsWrapSentinel(t *testing.T) {
	r := newTestRegistry(t)
	bad := []string{
		"", "   ", "nosuch", "box(", "box(size=2", "box)", "box(size)",
		"box(size=)", "box(=2)", "(size=2)", "box(size=2,size=3)",
		"box(size=x)", "box(ratio=x)", "box(zz=3)", "box space(size=2)",
	}
	for _, s := range bad {
		if _, err := r.Parse(testCtx{}, s); !errors.Is(err, errTest) {
			t.Errorf("Parse(%q) = %v, want wrapped sentinel", s, err)
		}
	}
	// Unknown-name errors enumerate the registered set.
	_, err := r.Parse(testCtx{}, "nosuch")
	if err == nil || !strings.Contains(err.Error(), "box") {
		t.Errorf("unknown-name error should list names: %v", err)
	}
	// Factory errors that do not wrap the sentinel get it added.
	r.Register("fail", Factory[*widget, testCtx]{
		New: func(testCtx, Args) (*widget, error) { return nil, errors.New("boom") },
	})
	if _, err := r.Parse(testCtx{}, "fail"); !errors.Is(err, errTest) {
		t.Errorf("factory error not wrapped: %v", err)
	}
}

func TestNestedSpecValues(t *testing.T) {
	r := newTestRegistry(t)
	w, err := r.Parse(testCtx{}, "box(base=box(size=2,ratio=0.5),size=4)")
	if err != nil {
		t.Fatal(err)
	}
	if w.Base != "box(size=2,ratio=0.5)" {
		t.Errorf("nested base = %q", w.Base)
	}
	if w.Size != 4 {
		t.Errorf("size = %d", w.Size)
	}
}

func TestArgsUint64(t *testing.T) {
	a := Args{"seed": "42"}
	v, err := a.Uint64("seed", 0)
	if err != nil || v != 42 {
		t.Errorf("Uint64 = %d, %v", v, err)
	}
	if v, err := a.Uint64("missing", 9); err != nil || v != 9 {
		t.Errorf("Uint64 default = %d, %v", v, err)
	}
	if _, err := (Args{"seed": "-1"}).Uint64("seed", 0); err == nil {
		t.Error("negative accepted as uint64")
	}
}

func TestRegistryRegisterPanics(t *testing.T) {
	r := newTestRegistry(t)
	expectPanic := func(name string, f Factory[*widget, testCtx]) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		r.Register(name, f)
	}
	ok := func(testCtx, Args) (*widget, error) { return &widget{}, nil }
	expectPanic("", Factory[*widget, testCtx]{New: ok})
	expectPanic("nilconstructor", Factory[*widget, testCtx]{})
	expectPanic("box", Factory[*widget, testCtx]{New: ok}) // duplicate
	expectPanic("bad name", Factory[*widget, testCtx]{New: ok})
	expectPanic("bad(name", Factory[*widget, testCtx]{New: ok})
}

func TestRegistryUsageAndNames(t *testing.T) {
	r := newTestRegistry(t)
	usage := r.Usage()
	if !strings.Contains(usage, "box(size,ratio,base)") || !strings.Contains(usage, "dot") {
		t.Errorf("usage = %q", usage)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "box" || names[1] != "dot" {
		t.Errorf("names = %v", names)
	}
}
