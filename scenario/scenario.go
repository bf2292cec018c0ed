// Package scenario is the declarative experiment-definition API: a
// Spec names every axis of one training run as a registry spec string —
// aggregation rule (internal/core), attack (attack), learning-rate
// schedule (internal/sgd) and workload (workload) — plus the scalar
// shape (n, f, rounds, batch, seed). Specs marshal to/from JSON, so
// whole experiment grids live in config files; a Matrix expands
// cartesian products of spec axes into cells, and a Runner executes the
// cells on a bounded pool of slots, cells that share a sample stream
// as one cohort, streaming per-cell results.
//
// Because every cell is seeded explicitly and distsgd.Run is
// deterministic given its Config, a matrix produces identical results
// regardless of worker count or goroutine interleaving — concurrency is
// purely a wall-clock optimization, which is what lets the harness
// regenerate the paper's figures through the same Runner that serves
// ad-hoc JSON scenario files.
//
// That same determinism makes cells cacheable: every cell is a pure
// function of its Spec, so a Runner with a ResultStore (see
// scenario/store for the content-addressed persistent implementation)
// skips cells whose results are already known and writes fresh ones
// through — repeated and overlapping grids cost only their uncovered
// cells. The krum-scenariod service builds on the same pieces to serve
// many matrices concurrently over HTTP against one shared store.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"krum/attack"
	"krum/data"
	"krum/distsgd"
	"krum/internal/arrival"
	"krum/internal/core"
	"krum/internal/sgd"
	"krum/internal/spec"
	"krum/workload"
)

// ErrBadSpec is returned (wrapped) for structurally invalid scenario
// specs; axis-level failures wrap the owning registry's sentinel
// (core.ErrBadParameter, attack.ErrBadSpec, sgd.ErrBadSchedule,
// workload.ErrBadSpec) instead.
var ErrBadSpec = errors.New("scenario: bad spec")

// Spec declares one training run. All four experiment axes are registry
// spec strings; everything is serializable, comparable and
// reproducible from the struct alone.
type Spec struct {
	// Name optionally labels the cell in result tables; Matrix fills it
	// with a generated label when expanding grids.
	Name string `json:"name,omitempty"`
	// Workload is the workload registry spec, e.g.
	// "mnist(size=10,hidden=16)".
	Workload string `json:"workload"`
	// Rule is the aggregation rule registry spec, e.g. "krum" or
	// "multikrum(f=4,m=8)"; parameters omitted here default to the
	// cluster shape (N, F).
	Rule string `json:"rule"`
	// Attack is the attack registry spec, e.g. "gaussian(sigma=200)";
	// empty means no attack.
	Attack string `json:"attack,omitempty"`
	// Schedule is the learning-rate schedule registry spec, e.g.
	// "inverset(gamma=0.5,power=0.75,t0=200)".
	Schedule string `json:"schedule"`
	// N is the total number of workers; F of them are Byzantine.
	N int `json:"n"`
	// F is the number of Byzantine workers (0 ≤ F < N).
	F int `json:"f"`
	// Rounds is the number of synchronous rounds T.
	Rounds int `json:"rounds"`
	// BatchSize is each correct worker's mini-batch size.
	BatchSize int `json:"batch_size"`
	// Seed drives every random choice in the run (including workload
	// construction).
	Seed uint64 `json:"seed"`
	// EvalEvery evaluates held-out metrics every that many rounds; 0
	// disables evaluation.
	EvalEvery int `json:"eval_every,omitempty"`
	// EvalBatch is the held-out evaluation sample size; 0 means the
	// distsgd default.
	EvalBatch int `json:"eval_batch,omitempty"`
	// TrackSelection additionally records Byzantine-selection
	// histograms (see distsgd.Config.TrackSelection).
	TrackSelection bool `json:"track_selection,omitempty"`
	// Incremental enables the cross-round incremental distance cache
	// (see distsgd.Config.Incremental). Results are bit-identical
	// either way; the flag trades memory for skipped recomputation when
	// proposals replay across rounds.
	Incremental bool `json:"incremental,omitempty"`
	// Arrival is the arrival-process registry spec selecting the
	// bounded-staleness asynchronous mode (see
	// distsgd.Config.ArrivalSpec), e.g. "bounded(tau=3)" or
	// "bernoulli(p=0.5,tau=8)". Empty means synchronous rounds, the
	// process "sync" and every tau=0 spec also parse to, so all of them
	// run the same rounds and share one store key (Canonical maps them
	// to empty), while genuinely asynchronous specs are part of the
	// cell's identity and can never alias a synchronous cell.
	Arrival string `json:"arrival,omitempty"`
}

// Label returns a compact human-readable cell identity.
func (s Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	atk := s.Attack
	if atk == "" {
		atk = "none"
	}
	parts := make([]string, 0, 6)
	if s.Workload != "" {
		parts = append(parts, s.Workload)
	}
	if s.Rule != "" {
		parts = append(parts, "rule="+s.Rule)
	}
	parts = append(parts, "attack="+atk)
	if s.Arrival != "" {
		parts = append(parts, "arrival="+s.Arrival)
	}
	parts = append(parts, fmt.Sprintf("f=%d", s.F), fmt.Sprintf("seed=%d", s.Seed))
	return strings.Join(parts, " ")
}

// Validate eagerly checks the scalar shape and resolves every axis
// through Canonical, so config files fail fast with registry-grade
// error messages instead of mid-matrix.
func (s Spec) Validate() error {
	if s.N < 1 || s.F < 0 || s.F >= s.N {
		return fmt.Errorf("n = %d, f = %d (need 0 ≤ f < n): %w", s.N, s.F, ErrBadSpec)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("rounds = %d: %w", s.Rounds, ErrBadSpec)
	}
	if s.BatchSize < 1 {
		return fmt.Errorf("batch_size = %d: %w", s.BatchSize, ErrBadSpec)
	}
	_, err := s.Canonical()
	return err
}

// workloadCanon memoizes raw workload spec → canonical spec for the life
// of the process. Workload factories build their dataset and model
// eagerly, but the canonical string depends only on the parsed
// parameters (the seed only randomizes weights), so one build per
// distinct spelling serves every cell and every key that names it.
// Failures are not memoized: they stay cheap and keep their full error.
var workloadCanon sync.Map

// Canonical returns the spec's identity: every axis resolved through
// its registry to the canonical form that reparses to the same object —
// the rule under SpecContext{N, F}, the attack ("" becomes "none"), the
// schedule, the workload, and the arrival process, where every spelling
// of sync (any τ = 0 spec) becomes "" and so shares the synchronous
// identity. The cosmetic Name is cleared. A spec without a rule, a
// schedule or a workload is not a cell and has no identity. Canonical
// is idempotent and is the one place axis strings become an identity:
// Validate and the result store's keys both go through it.
func (s Spec) Canonical() (Spec, error) {
	switch "" {
	case s.Rule:
		return Spec{}, fmt.Errorf("empty rule spec: %w", ErrBadSpec)
	case s.Schedule:
		return Spec{}, fmt.Errorf("empty schedule spec: %w", ErrBadSpec)
	case s.Workload:
		return Spec{}, fmt.Errorf("empty workload spec: %w", ErrBadSpec)
	}
	c := s
	c.Name = ""
	rule, err := canonicalRule(core.SpecContext{N: s.N, F: s.F}, s.Rule)
	if err != nil {
		return Spec{}, err
	}
	c.Rule = rule
	c.Attack = "none"
	if s.Attack != "" {
		atk, err := attack.Parse(s.Attack)
		if err != nil {
			return Spec{}, err
		}
		c.Attack = atk.Name()
	}
	sched, err := sgd.ParseSchedule(s.Schedule)
	if err != nil {
		return Spec{}, err
	}
	c.Schedule = sched.Name()
	if c.Workload, err = canonicalWorkload(s); err != nil {
		return Spec{}, err
	}
	if c.Arrival, err = canonicalArrival(s.Arrival); err != nil {
		return Spec{}, err
	}
	return c, nil
}

// canonicalWorkload returns the canonical spelling of s's workload,
// memoized in workloadCanon.
func canonicalWorkload(s Spec) (string, error) {
	wl, ok := workloadCanon.Load(s.Workload)
	if !ok {
		built, err := workload.Parse(workload.SpecContext{Seed: s.Seed}, s.Workload)
		if err != nil {
			return "", err
		}
		wl, _ = workloadCanon.LoadOrStore(s.Workload, built.Spec)
	}
	return wl.(string), nil
}

// canonicalArrival returns the canonical spelling of arrival spec a,
// "" for every spelling of sync.
func canonicalArrival(a string) (string, error) {
	if a == "" {
		return "", nil
	}
	proc, err := arrival.Parse(a)
	if err != nil {
		return "", err
	}
	if name := proc.Name(); name != "sync" {
		return name, nil
	}
	return "", nil
}

// canonicalRule returns the identity of rule spec s under ctx. It is
// rule.Name() whenever that re-parses to an equal rule, so a spelling
// of the defaults keeps its name. A Name that drops a parameter set
// away from its default (krum(f=5) at f = 3 is named "krum") is spelled
// out instead: the registry's parameters in order, each valued as Name
// gives it or else as s does. A rule neither spelling rebuilds has no
// identity and is refused.
func canonicalRule(ctx core.SpecContext, s string) (string, error) {
	rule, err := core.ParseRuleIn(ctx, s)
	if err != nil {
		return "", err
	}
	name := rule.Name()
	if rebuilds(ctx, name, rule) {
		return name, nil
	}
	base, named, err := spec.Parse("rule", core.ErrBadParameter, name)
	if err != nil {
		return "", err
	}
	_, given, _ := spec.Parse("rule", core.ErrBadParameter, s)
	factory, _ := core.Lookup(base)
	var params []string
	for _, p := range factory.Params {
		v, ok := named[p]
		if !ok {
			if v, ok = given[p]; ok {
				if i, err := strconv.Atoi(v); err == nil {
					v = strconv.Itoa(i)
				}
			}
		}
		if ok {
			params = append(params, p+"="+v)
		}
	}
	spelled := base + "(" + strings.Join(params, ",") + ")"
	if !rebuilds(ctx, spelled, rule) {
		return "", fmt.Errorf("rule %q: neither %q nor %q re-parses to it: %w", s, name, spelled, ErrBadSpec)
	}
	return spelled, nil
}

// rebuilds reports whether spelling s parses under ctx to a rule equal
// to rule.
func rebuilds(ctx core.SpecContext, s string, rule core.Rule) bool {
	again, err := core.ParseRuleIn(ctx, s)
	return err == nil && reflect.DeepEqual(again, rule)
}

// Compile materializes the spec into a distsgd.Config: the workload is
// built through its registry (seeded by Spec.Seed) and the rule,
// attack and schedule specs are handed to distsgd.Run, which constructs
// them with the cluster shape as defaults. A workload that deals its
// classes (partition) becomes the n − f correct workers' WorkerData,
// dealt by data.PartitionClasses; evaluation stays on the whole
// dataset.
func (s Spec) Compile() (distsgd.Config, error) {
	cfgs, err := compileCohort([]Spec{s})
	if err != nil {
		return distsgd.Config{}, err
	}
	return cfgs[0], nil
}

// compileCohort compiles specs that share a sample stream (streamKey)
// on one build of the first one's workload, so that their configs share
// its Model, Dataset and WorkerData, as distsgd.RunCohort requires.
func compileCohort(specs []Spec) ([]distsgd.Config, error) {
	lead := specs[0]
	wl, err := workload.Parse(workload.SpecContext{Seed: lead.Seed}, lead.Workload)
	if err != nil {
		return nil, err
	}
	var workerData []data.Dataset
	if wl.DealClasses {
		parts, err := data.PartitionClasses(wl.Dataset, lead.N-lead.F)
		if err != nil {
			return nil, err
		}
		workerData = make([]data.Dataset, len(parts))
		for i, p := range parts {
			workerData[i] = p
		}
	}
	cfgs := make([]distsgd.Config, len(specs))
	for i, s := range specs {
		cfgs[i] = distsgd.Config{
			Model:          wl.Model,
			Dataset:        wl.Dataset,
			WorkerData:     workerData,
			RuleSpec:       s.Rule,
			AttackSpec:     s.Attack,
			ScheduleSpec:   s.Schedule,
			N:              s.N,
			F:              s.F,
			Rounds:         s.Rounds,
			BatchSize:      s.BatchSize,
			Seed:           s.Seed,
			EvalEvery:      s.EvalEvery,
			EvalBatch:      s.EvalBatch,
			TrackSelection: s.TrackSelection,
			Incremental:    s.Incremental,
			ArrivalSpec:    s.Arrival,
		}
	}
	return cfgs, nil
}

// streamKey identifies a cell's sample stream: its canonical workload
// (partition included), seed, n − f and batch size — what
// distsgd.RunCohort asks its members to share. The eval batch is not
// in it: a cohort draws one per size its members evaluate on.
type streamKey struct {
	workload  string
	seed      uint64
	nc, batch int
}

// stream returns s's stream key, and false when s runs alone: an
// Incremental cell (its cache holds n × d rows across rounds), an
// asynchronous one (its replay buffers do, and it replays from its own
// round's buffers), or one whose workload or arrival does not parse.
func (s Spec) stream() (streamKey, bool) {
	if s.Incremental {
		return streamKey{}, false
	}
	if a, err := canonicalArrival(s.Arrival); err != nil || a != "" {
		return streamKey{}, false
	}
	wl, err := canonicalWorkload(s)
	if err != nil {
		return streamKey{}, false
	}
	return streamKey{workload: wl, seed: s.Seed, nc: s.N - s.F, batch: s.BatchSize}, true
}

// MarshalIndent renders the spec as the JSON accepted by config files.
func (s Spec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSpecJSON decodes one Spec from JSON, rejecting unknown fields so
// config-file typos surface as errors instead of silently-ignored keys.
func ParseSpecJSON(data []byte) (Spec, error) {
	var s Spec
	if err := decodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("decoding scenario spec: %w: %w", err, ErrBadSpec)
	}
	return s, nil
}

// decodeStrict decodes exactly one JSON value into v, rejecting unknown
// fields and anything but whitespace after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing content after the JSON value")
	}
	return nil
}
