// Package scenario is the declarative experiment-definition API: a
// Spec names every axis of one training run as a registry spec string —
// aggregation rule (internal/core), attack (attack), learning-rate
// schedule (internal/sgd) and workload (workload) — plus the scalar
// shape (n, f, rounds, batch, seed). Specs marshal to/from JSON, so
// whole experiment grids live in config files; a Matrix expands
// cartesian products of spec axes into cells, and a Runner executes the
// cells across a bounded goroutine pool, streaming per-cell results.
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
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"krum/attack"
	"krum/distsgd"
	"krum/internal/arrival"
	"krum/internal/core"
	"krum/internal/sgd"
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
	// "bernoulli(p=0.5,tau=8)". Empty means synchronous rounds; "sync"
	// and every tau=0 spec are byte-identical to empty and share its
	// store key (the store canonicalizes them away), while genuinely
	// asynchronous specs are part of the cell's identity and can never
	// alias a synchronous cell.
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

// Validate eagerly checks the scalar shape and parses all four axis
// specs, so config files fail fast with registry-grade error messages
// instead of mid-matrix.
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
	if s.Rule == "" {
		return fmt.Errorf("empty rule spec: %w", ErrBadSpec)
	}
	if _, err := core.ParseRuleIn(core.SpecContext{N: s.N, F: s.F}, s.Rule); err != nil {
		return err
	}
	if s.Attack != "" {
		if _, err := attack.Parse(s.Attack); err != nil {
			return err
		}
	}
	if s.Schedule == "" {
		return fmt.Errorf("empty schedule spec: %w", ErrBadSpec)
	}
	if _, err := sgd.ParseSchedule(s.Schedule); err != nil {
		return err
	}
	if s.Workload == "" {
		return fmt.Errorf("empty workload spec: %w", ErrBadSpec)
	}
	if _, err := workload.Parse(workload.SpecContext{Seed: s.Seed}, s.Workload); err != nil {
		return err
	}
	if s.Arrival != "" {
		if _, err := arrival.Parse(s.Arrival); err != nil {
			return err
		}
	}
	return nil
}

// Compile materializes the spec into a distsgd.Config: the workload is
// built through its registry (seeded by Spec.Seed) and the rule,
// attack and schedule specs are handed to distsgd.Run, which constructs
// them with the cluster shape as defaults.
func (s Spec) Compile() (distsgd.Config, error) {
	if s.Workload == "" {
		return distsgd.Config{}, fmt.Errorf("empty workload spec: %w", ErrBadSpec)
	}
	wl, err := workload.Parse(workload.SpecContext{Seed: s.Seed}, s.Workload)
	if err != nil {
		return distsgd.Config{}, err
	}
	return distsgd.Config{
		Model:          wl.Model,
		Dataset:        wl.Dataset,
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
	}, nil
}

// MarshalIndent renders the spec as the JSON accepted by config files.
func (s Spec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSpecJSON decodes one Spec from JSON, rejecting unknown fields so
// config-file typos surface as errors instead of silently-ignored keys.
func ParseSpecJSON(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("decoding scenario spec: %w: %w", err, ErrBadSpec)
	}
	return s, nil
}
