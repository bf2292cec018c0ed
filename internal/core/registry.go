package core

import (
	"fmt"

	"krum/internal/spec"
)

// This file is the central rule registry: every aggregation rule in the
// repository registers a named factory here, and every binary, example,
// and the distsgd engine construct rules exclusively through
// ParseRule / ParseRuleIn — there is no hand-rolled name→rule switch
// anywhere else in the tree. Spec strings take the form
//
//	krum | krum(f=2) | multikrum(f=2,m=5) | trimmedmean(b=1)
//
// Names and parameter keys are case-insensitive (normalized to lower
// case), so registry lookups are case-stable. The parsing machinery is
// the generic internal/spec registry shared with the attack, schedule
// and workload axes; only the rule factories live here.

// SpecContext supplies cluster-shape defaults for parameters a spec
// omits: "krum" parsed with SpecContext{N: 15, F: 3} yields Krum{F: 3}.
// The zero value means "shape unknown" — parameters without a universal
// default must then be spelled out in the spec.
type SpecContext struct {
	// N is the total number of proposals per round (0 = unknown).
	N int
	// F is the default Byzantine tolerance for rules that take one.
	F int
}

// Args holds the key=value parameters of a parsed rule spec, keys lower
// case.
type Args = spec.Args

// Factory builds a rule from a parsed spec. Register one per rule name.
type Factory = spec.Factory[Rule, SpecContext]

// registry is the central rule registry; every parse failure wraps
// ErrBadParameter.
var registry = spec.NewRegistry[Rule, SpecContext]("rule", ErrBadParameter)

// Register adds a rule factory under the given (case-insensitive) name.
// It panics on an empty name, a nil constructor, or a duplicate
// registration — all programmer errors at init time.
func Register(name string, f Factory) { registry.Register(name, f) }

// Lookup returns the factory registered under name (case-insensitive).
func Lookup(name string) (Factory, bool) { return registry.Lookup(name) }

// Names returns the registered rule names, sorted.
func Names() []string { return registry.Names() }

// Usage returns a generated one-line summary of every registered rule
// with its accepted parameters — the CLI help strings are built from
// this so they can never drift from the registry.
func Usage() string { return registry.Usage() }

// ParseRuleIn constructs the rule described by spec, with cluster-shape
// defaults from ctx. Unknown names, unknown parameter keys, and
// malformed values are all reported as wrapped ErrBadParameter.
func ParseRuleIn(ctx SpecContext, s string) (Rule, error) {
	return registry.Parse(ctx, s)
}

// ParseRule is ParseRuleIn with an empty context: every parameter
// without a universal default must be spelled out in the spec.
func ParseRule(spec string) (Rule, error) {
	return ParseRuleIn(SpecContext{}, spec)
}

// init registers the built-in rules. Third-party rules can call
// Register from their own init functions.
func init() {
	Register("krum", Factory{
		Params: []string{"f"},
		Doc:    "the paper's choice function Kr (Section 4)",
		New: func(ctx SpecContext, a Args) (Rule, error) {
			f, err := a.Int("f", ctx.F)
			if err != nil {
				return nil, err
			}
			return &Krum{F: f}, nil
		},
	})
	Register("multikrum", Factory{
		Params: []string{"f", "m"},
		Doc:    "average of the m smallest-score proposals (full paper, Figure 6)",
		New: func(ctx SpecContext, a Args) (Rule, error) {
			f, err := a.Int("f", ctx.F)
			if err != nil {
				return nil, err
			}
			defM := 0
			if ctx.N > 0 {
				defM = ctx.N - f
				if defM < 1 {
					defM = 1
				}
			}
			m, err := a.Int("m", defM)
			if err != nil {
				return nil, err
			}
			if m < 1 {
				if !a.Has("m") {
					return nil, fmt.Errorf("multikrum needs m (or a SpecContext with N set): %w", ErrBadParameter)
				}
				return nil, fmt.Errorf("m = %d (need m ≥ 1): %w", m, ErrBadParameter)
			}
			return &MultiKrum{F: f, M: m}, nil
		},
	})
	Register("krumk", Factory{
		Params: []string{"k"},
		Doc:    "ablation Krum with an explicit neighbour count",
		New: func(ctx SpecContext, a Args) (Rule, error) {
			if !a.Has("k") {
				return nil, fmt.Errorf("krumk needs an explicit k: %w", ErrBadParameter)
			}
			k, err := a.Int("k", 0)
			if err != nil {
				return nil, err
			}
			return &KrumK{K: k}, nil
		},
	})
	Register("average", Factory{
		Doc: "classical barycenter (no Byzantine tolerance, Lemma 3.1)",
		New: func(SpecContext, Args) (Rule, error) { return Average{}, nil },
	})
	Register("medoid", Factory{
		Doc: "distance-based rule of Section 4 (tolerates one Byzantine worker)",
		New: func(SpecContext, Args) (Rule, error) { return Medoid{}, nil },
	})
	Register("coordmedian", Factory{
		Doc: "coordinate-wise median baseline",
		New: func(SpecContext, Args) (Rule, error) { return CoordMedian{}, nil },
	})
	Register("trimmedmean", Factory{
		Params: []string{"b"},
		Doc:    "coordinate-wise β-trimmed mean baseline",
		New: func(ctx SpecContext, a Args) (Rule, error) {
			b, err := a.Int("b", ctx.F)
			if err != nil {
				return nil, err
			}
			return TrimmedMean{Trim: b}, nil
		},
	})
	Register("geomedian", Factory{
		Doc: "Weiszfeld geometric-median baseline",
		New: func(SpecContext, Args) (Rule, error) { return GeoMedian{}, nil },
	})
	Register("minimaldiameter", Factory{
		Params: []string{"f"},
		Doc:    "exponential minimal-diameter subset rule (cost baseline)",
		New: func(ctx SpecContext, a Args) (Rule, error) {
			f, err := a.Int("f", ctx.F)
			if err != nil {
				return nil, err
			}
			return &MinimalDiameter{F: f}, nil
		},
	})
	Register("bulyan", Factory{
		Params: []string{"f"},
		Doc:    "iterated Krum + trimmed mean (ICML 2018 follow-up, needs n ≥ 4f+3)",
		New: func(ctx SpecContext, a Args) (Rule, error) {
			if a.Has("f") {
				f, err := a.Int("f", 0)
				if err != nil {
					return nil, err
				}
				return &Bulyan{F: f}, nil
			}
			// Default: the declared tolerance, clamped to the largest
			// value the known cluster size supports (n ≥ 4f + 3).
			f := ctx.F
			if ctx.N > 0 {
				if maxF := (ctx.N - 3) / 4; f > maxF {
					f = maxF
				}
				if f < 0 {
					f = 0
				}
			}
			return &Bulyan{F: f}, nil
		},
	})
	Register("clippedmean", Factory{
		Doc: "median-norm clipping then average (magnitude attacks only)",
		New: func(SpecContext, Args) (Rule, error) { return ClippedMean{}, nil },
	})
}
