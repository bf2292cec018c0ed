package arrival

import (
	"errors"
	"fmt"

	"krum/internal/spec"
)

// This file is the central arrival-process registry — the fifth spec
// registry of the repository after rules, attacks, schedules and
// workloads. distsgd.Config.ArrivalSpec, scenario.Spec.Arrival and the
// CLI binaries construct processes exclusively through Parse. Spec
// strings take the form
//
//	sync | bounded(tau=3) | bernoulli(p=0.5,tau=8,damp=0.1)
//
// and every built-in Process's Name() is itself a valid spec, so
// processes round-trip through experiment logs, JSON scenario files
// and the result store's canonical form. A τ = 0 spec collapses to
// Sync (with τ = 0 every worker is forced to arrive every round, so
// the process IS synchronous) — its canonical name is "sync", which is
// what lets the store alias bounded(tau=0) cells onto sync cells.

// ErrBadArrival is returned for malformed arrival specs and invalid
// arrival parameters.
var ErrBadArrival = errors.New("arrival: bad arrival spec")

// Args holds the key=value parameters of a parsed arrival spec.
type Args = spec.Args

// Factory builds a Process from a parsed spec. Arrival processes take
// no context defaults — τ must always be spelled out for the
// non-synchronous families.
type Factory = spec.Factory[Process, struct{}]

var processes = spec.NewRegistry[Process, struct{}]("arrival", ErrBadArrival)

// Register adds an arrival-process factory under the given
// (case-insensitive) name; it panics on duplicates — a programmer
// error at init time.
func Register(name string, f Factory) { processes.Register(name, f) }

// Parse constructs the arrival process described by s. Unknown names,
// unknown parameter keys, and malformed values are all reported as
// wrapped ErrBadArrival.
func Parse(s string) (Process, error) { return processes.Parse(struct{}{}, s) }

// Usage returns a generated one-line summary of every registered
// arrival process with its parameters — CLI help text is built from
// this so it can never drift from the implemented set.
func Usage() string { return processes.Usage() }

// tauArg extracts the mandatory non-negative tau parameter.
func tauArg(a Args) (int, error) {
	if !a.Has("tau") {
		return 0, fmt.Errorf("tau is required: %w", ErrBadArrival)
	}
	tau, err := a.Int("tau", 0)
	if err != nil {
		return 0, err
	}
	if tau < 0 {
		return 0, fmt.Errorf("tau = %d must be non-negative: %w", tau, ErrBadArrival)
	}
	return tau, nil
}

// dampArg extracts the optional non-negative damp parameter.
func dampArg(a Args) (float64, error) {
	damp, err := a.Float("damp", 0)
	if err != nil {
		return 0, err
	}
	if damp < 0 {
		return 0, fmt.Errorf("damp = %g must be non-negative: %w", damp, ErrBadArrival)
	}
	return damp, nil
}

// init registers the built-in arrival processes. Third-party processes
// can call Register from their own init functions.
func init() {
	Register("sync", Factory{
		Doc: "synchronous rounds: every worker submits fresh every round (τ = 0)",
		New: func(_ struct{}, a Args) (Process, error) {
			return Sync{}, nil
		},
	})
	Register("bounded", Factory{
		Params: []string{"tau", "damp"},
		Doc:    "staggered rotation: worker i arrives when (t+i) mod (τ+1) = 0, every proposal exactly τ rounds stale between refreshes",
		New: func(_ struct{}, a Args) (Process, error) {
			tau, err := tauArg(a)
			if err != nil {
				return nil, err
			}
			damp, err := dampArg(a)
			if err != nil {
				return nil, err
			}
			if tau == 0 {
				// τ = 0 forces every worker every round; canonicalize
				// to Sync so the store aliases it onto sync cells.
				return Sync{}, nil
			}
			return Bounded{TauBound: tau, Lambda: damp}, nil
		},
	})
	Register("bernoulli", Factory{
		Params: []string{"p", "tau", "damp"},
		Doc:    "i.i.d. availability: each worker arrives with probability p per round (default 0.5), lag capped at τ",
		New: func(_ struct{}, a Args) (Process, error) {
			p, err := a.Float("p", 0.5)
			if err != nil {
				return nil, err
			}
			if p <= 0 || p > 1 {
				return nil, fmt.Errorf("p = %g outside (0, 1]: %w", p, ErrBadArrival)
			}
			tau, err := tauArg(a)
			if err != nil {
				return nil, err
			}
			damp, err := dampArg(a)
			if err != nil {
				return nil, err
			}
			if tau == 0 {
				return Sync{}, nil
			}
			return Bernoulli{P: p, TauBound: tau, Lambda: damp}, nil
		},
	})
}
