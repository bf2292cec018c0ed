// Package spec is the generic spec-string machinery shared by every
// registry in the repository: aggregation rules (internal/core),
// Byzantine attacks (attack), learning-rate schedules (internal/sgd)
// and workloads (workload) all parse the same compact form
//
//	name | name(key=value) | name(key=value,key=value)
//
// through one Registry, so error messages, case normalization and
// round-tripping (Parse(x.Name()) ≡ x) are uniform across every axis of
// the experiment grid. Names and parameter keys are case-insensitive
// (normalized to lower case); values keep their case. Parameter values
// may themselves be specs — "noniid(base=mnist(size=10),classes=3)" —
// because parameter splitting is parenthesis-aware.
//
// A Registry is parameterized by the constructed type T and a context
// type C supplying defaults for parameters a spec omits (cluster shape
// for rules, seed for workloads, struct{} where no defaults exist).
// Every parse failure wraps the registry's sentinel error, so callers
// test errors.Is(err, pkg.ErrBadParameter)-style sentinels exactly as
// before the registries were unified.
package spec

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// errValue is the internal sentinel wrapped by Args accessors; Registry
// re-wraps it with the registry's own sentinel so callers only ever see
// that one.
var errValue = errors.New("bad parameter value")

// Args holds the key=value parameters of a parsed spec, keys lower
// case.
type Args map[string]string

// Has reports whether the spec spelled out the given key.
func (a Args) Has(key string) bool {
	_, ok := a[key]
	return ok
}

// String returns the raw value of key, or def when the spec omitted it.
func (a Args) String(key, def string) string {
	if s, ok := a[key]; ok {
		return s
	}
	return def
}

// Int returns the integer value of key, or def when the spec omitted
// it. A malformed value is reported as a wrapped sentinel error once it
// passes through Registry.Parse.
func (a Args) Int(key string, def int) (int, error) {
	s, ok := a[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer: %w", key, s, errValue)
	}
	return v, nil
}

// Uint64 returns the unsigned integer value of key, or def when the
// spec omitted it.
func (a Args) Uint64(key string, def uint64) (uint64, error) {
	s, ok := a[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an unsigned integer: %w", key, s, errValue)
	}
	return v, nil
}

// Float returns the float value of key, or def when the spec omitted
// it. A malformed value is reported as a wrapped sentinel error once it
// passes through Registry.Parse.
func (a Args) Float(key string, def float64) (float64, error) {
	s, ok := a[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not a number: %w", key, s, errValue)
	}
	return v, nil
}

// Factory builds a T from a parsed spec. Register one per name.
type Factory[T, C any] struct {
	// Params names the accepted spec parameters in display order; any
	// other key in a spec is rejected with the registry's sentinel.
	Params []string
	// Doc is a one-line description used in generated help text.
	Doc string
	// New constructs the value from the context defaults and the spec
	// parameters.
	New func(ctx C, args Args) (T, error)
}

// Registry maps lower-case names to factories for one axis of the
// experiment grid. Construct with NewRegistry; the zero value is not
// usable.
type Registry[T, C any] struct {
	kind     string
	sentinel error
	mu       sync.RWMutex
	entries  map[string]Factory[T, C]
}

// NewRegistry returns an empty registry. kind names the axis in error
// messages ("rule", "attack", "schedule", "workload"); sentinel is the
// package-level error every parse failure wraps.
func NewRegistry[T, C any](kind string, sentinel error) *Registry[T, C] {
	if kind == "" || sentinel == nil {
		panic("spec: NewRegistry needs a kind and a sentinel error")
	}
	return &Registry[T, C]{
		kind:     kind,
		sentinel: sentinel,
		entries:  map[string]Factory[T, C]{},
	}
}

// Register adds a factory under the given (case-insensitive) name. It
// panics on an empty name, a nil constructor, or a duplicate
// registration — all programmer errors at init time.
func (r *Registry[T, C]) Register(name string, f Factory[T, C]) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		panic(fmt.Sprintf("spec: Register with empty %s name", r.kind))
	}
	if strings.ContainsAny(key, "(),= ") {
		panic(fmt.Sprintf("spec: %s name %q contains spec syntax", r.kind, name))
	}
	if f.New == nil {
		panic(fmt.Sprintf("spec: Register(%q) with nil constructor", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[key]; dup {
		panic(fmt.Sprintf("spec: Register(%q) called twice", key))
	}
	r.entries[key] = f
}

// Lookup returns the factory registered under name (case-insensitive).
func (r *Registry[T, C]) Lookup(name string) (Factory[T, C], bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.entries[strings.ToLower(strings.TrimSpace(name))]
	return f, ok
}

// Names returns the registered names, sorted.
func (r *Registry[T, C]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Usage returns a generated one-line summary of every registered entry
// with its accepted parameters — CLI help strings are built from this
// so they can never drift from the registry.
func (r *Registry[T, C]) Usage() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		f := r.entries[name]
		if len(f.Params) == 0 {
			parts = append(parts, name)
			continue
		}
		parts = append(parts, name+"("+strings.Join(f.Params, ",")+")")
	}
	return strings.Join(parts, " | ")
}

// Parse constructs the value described by spec, with defaults from ctx.
// Unknown names, unknown parameter keys, and malformed values are all
// reported as errors wrapping the registry's sentinel.
func (r *Registry[T, C]) Parse(ctx C, s string) (T, error) {
	var zero T
	name, args, err := Parse(r.kind, r.sentinel, s)
	if err != nil {
		return zero, err
	}
	factory, ok := r.Lookup(name)
	if !ok {
		return zero, fmt.Errorf("unknown %s %q (registered: %s): %w",
			r.kind, name, strings.Join(r.Names(), ", "), r.sentinel)
	}
	for key := range args {
		known := false
		for _, p := range factory.Params {
			if key == p {
				known = true
				break
			}
		}
		if !known {
			return zero, fmt.Errorf("%s %q does not take parameter %q (accepts: %s): %w",
				r.kind, name, key, strings.Join(factory.Params, ", "), r.sentinel)
		}
	}
	v, err := factory.New(ctx, args)
	if err != nil {
		if errors.Is(err, r.sentinel) {
			return zero, fmt.Errorf("%s spec %q: %w", r.kind, s, err)
		}
		return zero, fmt.Errorf("%s spec %q: %w: %w", r.kind, s, err, r.sentinel)
	}
	return v, nil
}

// Parse splits a spec into its lower-cased name and parameter map
// without consulting any registry. Malformed specs are reported as
// errors wrapping sentinel; kind names the axis in those messages.
// Parameter splitting is parenthesis-aware, so values may themselves be
// specs: "noniid(base=mnist(size=10,hidden=16),classes=3)" yields
// base = "mnist(size=10,hidden=16)".
func Parse(kind string, sentinel error, spec string) (string, Args, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return "", nil, fmt.Errorf("empty %s spec: %w", kind, sentinel)
	}
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if strings.ContainsAny(s, "),= ") {
			return "", nil, fmt.Errorf("malformed %s spec %q: %w", kind, spec, sentinel)
		}
		return strings.ToLower(s), Args{}, nil
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return "", nil, fmt.Errorf("%s spec %q has no name: %w", kind, spec, sentinel)
	}
	if strings.ContainsAny(name, "),= ") {
		return "", nil, fmt.Errorf("malformed %s spec %q: %w", kind, spec, sentinel)
	}
	if !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("%s spec %q: missing ')': %w", kind, spec, sentinel)
	}
	args := Args{}
	inner := strings.TrimSpace(s[open+1 : len(s)-1])
	if inner == "" {
		return strings.ToLower(name), args, nil
	}
	for _, kv := range splitDepthAware(inner) {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("%s spec %q: parameter %q is not key=value: %w",
				kind, spec, strings.TrimSpace(kv), sentinel)
		}
		key := strings.ToLower(strings.TrimSpace(kv[:eq]))
		val := strings.TrimSpace(kv[eq+1:])
		if key == "" || val == "" {
			return "", nil, fmt.Errorf("%s spec %q: empty key or value in %q: %w",
				kind, spec, strings.TrimSpace(kv), sentinel)
		}
		if _, dup := args[key]; dup {
			return "", nil, fmt.Errorf("%s spec %q: duplicate parameter %q: %w", kind, spec, key, sentinel)
		}
		args[key] = val
	}
	return strings.ToLower(name), args, nil
}

// splitDepthAware splits s on commas at parenthesis depth zero.
func splitDepthAware(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
