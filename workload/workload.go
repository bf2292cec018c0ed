// Package workload is the central workload registry: it pairs the
// dataset substrates of package data with matching model architectures
// from package model and makes the bundles constructible from compact
// spec strings — the fourth axis of the experiment grid next to rules
// (internal/core), attacks (attack) and schedules (internal/sgd). Spec
// strings take the form
//
//	mnist(size=16,hidden=48) | spambase(spamrate=0.394) |
//	gmm(k=3,dim=8) | noniid(base=mnist(size=10,hidden=16),classes=3) |
//	partition(base=mnist(size=10,hidden=16))
//
// Parameter values may themselves be specs (noniid and partition wrap
// another workload), and every parsed Workload records the canonical spec that
// rebuilds it, so workloads round-trip through JSON scenario files:
// Parse(ctx, w.Spec) reconstructs w.
package workload

import (
	"errors"
	"fmt"

	"krum/data"
	"krum/internal/spec"
	"krum/model"
)

// ErrBadSpec is returned (wrapped) for malformed or unknown workload
// specs.
var ErrBadSpec = errors.New("workload: bad spec")

// SpecContext supplies the deterministic seed every workload factory
// draws its dataset structure and model initialization from.
type SpecContext struct {
	// Seed drives dataset generation and model weight initialization.
	Seed uint64
}

// Workload bundles a dataset with a matching model architecture — the
// unit the scenario matrix and the CLI binaries select by spec.
type Workload struct {
	// Name is the registry identifier ("mnist", "gmm", ...).
	Name string
	// Spec is the canonical spec string: parsing it with the same
	// SpecContext reconstructs this workload exactly.
	Spec string
	// Dataset is the sample stream.
	Dataset data.Dataset
	// Model is the architecture (callers clone it before training).
	Model model.Model
	// Description is a human-readable summary.
	Description string
	// DealClasses asks for label skew: each correct worker trains on its
	// own share of Dataset's classes (data.PartitionClasses over the n − f
	// correct workers, dealt by scenario.Spec.Compile), while evaluation
	// stays on the whole Dataset.
	DealClasses bool
}

// SpecArgs holds the key=value parameters of a parsed workload spec.
type SpecArgs = spec.Args

// Factory builds a Workload from a parsed spec.
type Factory = spec.Factory[*Workload, SpecContext]

var registry = spec.NewRegistry[*Workload, SpecContext]("workload", ErrBadSpec)

// Register adds a workload factory under the given (case-insensitive)
// name; it panics on duplicates — a programmer error at init time.
func Register(name string, f Factory) { registry.Register(name, f) }

// Parse constructs the workload described by spec. Unknown names,
// unknown parameter keys, and malformed values are all reported as
// wrapped ErrBadSpec.
func Parse(ctx SpecContext, s string) (*Workload, error) { return registry.Parse(ctx, s) }

// Names returns the registered workload names, sorted.
func Names() []string { return registry.Names() }

// Usage returns a generated one-line summary of every registered
// workload with its parameters — CLI help text is built from this so it
// can never drift from the implemented set.
func Usage() string { return registry.Usage() }

// maxFloats bounds one built-in workload: a spec whose model or dataset
// would hold more than 2²² floats (32 MiB) is refused with ErrBadSpec
// before anything is allocated, so no spec string — a scenariod
// submission included — can make validation allocate without bound. The
// largest workload any experiment uses, mnist(size=28,hidden=100), has
// 79 510 parameters.
const maxFloats = 1 << 22

// floats multiplies spec parameters, saturating just above maxFloats so
// no parameter value can overflow a count; a non-positive factor yields
// 0 and is left for the constructors to refuse.
func floats(factors ...int) int {
	n := 1
	for _, x := range factors {
		if x <= 0 {
			return 0
		}
		if n > maxFloats/x {
			return maxFloats + 1
		}
		n *= x
	}
	return n
}

// checkFloats refuses a workload whose model — the sum of terms, each a
// floats product or a raw parameter — would hold more than maxFloats
// floats (no built-in's dataset holds more than its model). Terms are
// clamped, so the sum cannot overflow either.
func checkFloats(name string, terms ...int) error {
	n := 0
	for _, t := range terms {
		n += min(max(t, 0), maxFloats+1)
	}
	if n > maxFloats {
		return fmt.Errorf("%s would hold more than %d floats: %w", name, maxFloats, ErrBadSpec)
	}
	return nil
}

// init registers the built-in workloads. Third-party workloads can call
// Register from their own init functions.
func init() {
	Register("mnist", Factory{
		Params: []string{"size", "hidden", "noise"},
		Doc:    "synthetic MNIST digits + one-hidden-layer MLP (the paper's image task)",
		New: func(ctx SpecContext, a SpecArgs) (*Workload, error) {
			size, err := a.Int("size", 16)
			if err != nil {
				return nil, err
			}
			hidden, err := a.Int("hidden", 48)
			if err != nil {
				return nil, err
			}
			if hidden < 1 {
				return nil, fmt.Errorf("hidden = %d must be positive: %w", hidden, ErrBadSpec)
			}
			noise, err := a.Float("noise", 0.05)
			if err != nil {
				return nil, err
			}
			if err := checkFloats("mnist", floats(size, size, hidden), floats(hidden, 11), 10); err != nil {
				return nil, err
			}
			ds, err := data.NewSyntheticMNIST(size, noise)
			if err != nil {
				return nil, err
			}
			mlp, err := model.NewMLP(ds.Dim(), []int{hidden}, 10, model.ActReLU, model.SoftmaxCrossEntropy{}, ctx.Seed)
			if err != nil {
				return nil, err
			}
			return &Workload{
				Name:    "mnist",
				Spec:    fmt.Sprintf("mnist(size=%d,hidden=%d,noise=%g)", size, hidden, noise),
				Dataset: ds,
				Model:   mlp,
				Description: fmt.Sprintf("%dx%d synthetic MNIST, MLP(%d hidden, d=%d)",
					size, size, hidden, mlp.Dim()),
			}, nil
		},
	})
	Register("mnistconv", Factory{
		Params: []string{"size", "channels", "hidden", "noise"},
		Doc:    "synthetic MNIST digits + small ConvNet",
		New: func(ctx SpecContext, a SpecArgs) (*Workload, error) {
			size, err := a.Int("size", 16)
			if err != nil {
				return nil, err
			}
			channels, err := a.Int("channels", 8)
			if err != nil {
				return nil, err
			}
			hidden, err := a.Int("hidden", 32)
			if err != nil {
				return nil, err
			}
			noise, err := a.Float("noise", 0.05)
			if err != nil {
				return nil, err
			}
			pooled := (size - 4) / 2 // side after the 5×5 valid conv and 2×2 pool
			if err := checkFloats("mnistconv", floats(channels, 26), floats(channels, pooled, pooled, hidden), floats(hidden, 11), 10); err != nil {
				return nil, err
			}
			ds, err := data.NewSyntheticMNIST(size, noise)
			if err != nil {
				return nil, err
			}
			conv, err := model.NewConvNet(size, size, channels, hidden, 10, ctx.Seed)
			if err != nil {
				return nil, err
			}
			return &Workload{
				Name:    "mnistconv",
				Spec:    fmt.Sprintf("mnistconv(size=%d,channels=%d,hidden=%d,noise=%g)", size, channels, hidden, noise),
				Dataset: ds,
				Model:   conv,
				Description: fmt.Sprintf("%dx%d synthetic MNIST, ConvNet(d=%d)",
					size, size, conv.Dim()),
			}, nil
		},
	})
	Register("spambase", Factory{
		Params: []string{"spamrate"},
		Doc:    "synthetic UCI Spambase + logistic regression (the paper's spam task)",
		New: func(ctx SpecContext, a SpecArgs) (*Workload, error) {
			rate, err := a.Float("spamrate", 0.394)
			if err != nil {
				return nil, err
			}
			ds, err := data.NewSyntheticSpambase(rate, ctx.Seed)
			if err != nil {
				return nil, err
			}
			lr, err := model.NewLogistic(ds.Dim(), ctx.Seed+1)
			if err != nil {
				return nil, err
			}
			return &Workload{
				Name:    "spambase",
				Spec:    fmt.Sprintf("spambase(spamrate=%g)", rate),
				Dataset: ds,
				Model:   lr,
				Description: fmt.Sprintf("synthetic spambase (%d features), logistic regression (d=%d)",
					ds.Dim(), lr.Dim()),
			}, nil
		},
	})
	Register("gmm", Factory{
		Params: []string{"k", "dim", "radius", "sigma"},
		Doc:    "k-class Gaussian mixture + softmax classifier (smallest mis-aggregation-visible task)",
		New: func(ctx SpecContext, a SpecArgs) (*Workload, error) {
			k, err := a.Int("k", 3)
			if err != nil {
				return nil, err
			}
			dim, err := a.Int("dim", 8)
			if err != nil {
				return nil, err
			}
			radius, err := a.Float("radius", 4)
			if err != nil {
				return nil, err
			}
			sigma, err := a.Float("sigma", 0.5)
			if err != nil {
				return nil, err
			}
			if err := checkFloats("gmm", floats(k, dim), k); err != nil {
				return nil, err
			}
			ds, err := data.NewGaussianMixture(k, dim, radius, sigma, ctx.Seed)
			if err != nil {
				return nil, err
			}
			clf, err := model.NewSoftmaxClassifier(dim, k, ctx.Seed+1)
			if err != nil {
				return nil, err
			}
			return &Workload{
				Name:    "gmm",
				Spec:    fmt.Sprintf("gmm(k=%d,dim=%d,radius=%g,sigma=%g)", k, dim, radius, sigma),
				Dataset: ds,
				Model:   clf,
				Description: fmt.Sprintf("%d-class Gaussian mixture, softmax classifier (d=%d)",
					k, clf.Dim()),
			}, nil
		},
	})
	Register("regression", Factory{
		Params: []string{"in", "out", "noise"},
		Doc:    "linear regression stream, quadratic cost (Proposition 4.3's strongly convex workload)",
		New: func(ctx SpecContext, a SpecArgs) (*Workload, error) {
			in, err := a.Int("in", 12)
			if err != nil {
				return nil, err
			}
			out, err := a.Int("out", 1)
			if err != nil {
				return nil, err
			}
			noise, err := a.Float("noise", 0.2)
			if err != nil {
				return nil, err
			}
			if err := checkFloats("regression", floats(out, in), out); err != nil {
				return nil, err
			}
			ds, err := data.NewLinearRegressionStream(in, out, noise, ctx.Seed)
			if err != nil {
				return nil, err
			}
			lr, err := model.NewLinearRegression(in, out, ctx.Seed+1)
			if err != nil {
				return nil, err
			}
			return &Workload{
				Name:        "regression",
				Spec:        fmt.Sprintf("regression(in=%d,out=%d,noise=%g)", in, out, noise),
				Dataset:     ds,
				Model:       lr,
				Description: fmt.Sprintf("linear regression stream, quadratic cost (d=%d)", lr.Dim()),
			}, nil
		},
	})
	Register("noniid", Factory{
		Params: []string{"base", "classes"},
		Doc:    "class-restricted view of a base workload (violates the i.i.d. assumption)",
		New: func(ctx SpecContext, a SpecArgs) (*Workload, error) {
			baseSpec := a.String("base", "")
			if baseSpec == "" {
				return nil, fmt.Errorf("noniid needs a base workload spec: %w", ErrBadSpec)
			}
			if !a.Has("classes") {
				return nil, fmt.Errorf("noniid needs an explicit class count: %w", ErrBadSpec)
			}
			classes, err := a.Int("classes", 0)
			if err != nil {
				return nil, err
			}
			base, err := Parse(ctx, baseSpec)
			if err != nil {
				return nil, fmt.Errorf("base workload: %w", err)
			}
			k := base.Dataset.OutDim()
			if classes < 1 || classes >= k {
				return nil, fmt.Errorf("classes = %d outside [1, %d): %w", classes, k, ErrBadSpec)
			}
			kept := make([]int, classes)
			for i := range kept {
				kept[i] = i
			}
			filtered, err := data.NewClassFilter(base.Dataset, kept)
			if err != nil {
				return nil, err
			}
			return &Workload{
				Name:        "noniid",
				Spec:        fmt.Sprintf("noniid(base=%s,classes=%d)", base.Spec, classes),
				Dataset:     filtered,
				Model:       base.Model,
				Description: fmt.Sprintf("%s, restricted to the first %d classes", base.Description, classes),
			}, nil
		},
	})
	Register("partition", Factory{
		Params: []string{"base"},
		Doc:    "a base workload's classes dealt across the correct workers (label skew; violates the i.i.d. assumption)",
		New: func(ctx SpecContext, a SpecArgs) (*Workload, error) {
			baseSpec := a.String("base", "")
			if baseSpec == "" {
				return nil, fmt.Errorf("partition needs a base workload spec: %w", ErrBadSpec)
			}
			base, err := Parse(ctx, baseSpec)
			if err != nil {
				return nil, fmt.Errorf("base workload: %w", err)
			}
			// A worker dealt a class its base never emits would redraw
			// forever (data.ClassFilter.Sample), so a base that already
			// restricts or deals its classes is refused, as is one with no
			// one-hot classes to deal.
			if base.Name == "noniid" || base.Name == "partition" {
				return nil, fmt.Errorf("partition cannot deal the classes of %s: %w", base.Spec, ErrBadSpec)
			}
			if _, err := data.PartitionClasses(base.Dataset, 1); err != nil {
				return nil, fmt.Errorf("partition of %s: %w: %w", base.Spec, err, ErrBadSpec)
			}
			return &Workload{
				Name:        "partition",
				Spec:        fmt.Sprintf("partition(base=%s)", base.Spec),
				Dataset:     base.Dataset,
				Model:       base.Model,
				Description: base.Description + ", classes dealt across the correct workers",
				DealClasses: true,
			}, nil
		},
	})
}
