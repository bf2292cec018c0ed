package scenario

import (
	"fmt"
	"math"
	"strings"
)

// Matrix declares a cartesian experiment grid over a base Spec: every
// non-empty axis replaces the corresponding base field, and Cells
// expands the full product in a deterministic order (workloads × rules
// × attacks × arrivals × f-values × seeds, seeds innermost). An empty
// axis means "use the base value", so a Matrix with only Rules set
// sweeps rules with everything else fixed.
type Matrix struct {
	// Base supplies every field the axes do not override.
	Base Spec `json:"base"`
	// Workloads optionally sweeps workload registry specs.
	Workloads []string `json:"workloads,omitempty"`
	// Rules optionally sweeps rule registry specs.
	Rules []string `json:"rules,omitempty"`
	// Attacks optionally sweeps attack registry specs ("" or "none"
	// means no attack).
	Attacks []string `json:"attacks,omitempty"`
	// Arrivals optionally sweeps arrival-process registry specs ("" or
	// "sync" means synchronous rounds) — the staleness-sweep axis. An
	// absent axis contributes nothing to seed derivation, so grids
	// written before the axis existed keep their derived seeds (and
	// their stored results); a present axis, even a singleton, is a
	// coordinate like any other.
	Arrivals []string `json:"arrivals,omitempty"`
	// Fs optionally sweeps the Byzantine count.
	Fs []int `json:"fs,omitempty"`
	// Seeds optionally sweeps replicate seeds. Cells along the other
	// axes share each seed value, giving paired comparisons under
	// identical randomness (the design the paper's figures use).
	Seeds []uint64 `json:"seeds,omitempty"`
	// DeriveSeeds decorrelates the grid: each cell's seed becomes a
	// deterministic SplitMix64 hash of its replicate seed and its axis
	// coordinates, so no two cells share a random stream. The
	// derivation depends only on the grid shape — two expansions of the
	// same Matrix always agree.
	DeriveSeeds bool `json:"derive_seeds,omitempty"`
}

// Size returns the number of cells the matrix expands to, without
// expanding it. It saturates at math.MaxInt instead of wrapping, so a
// size bound holds for any axis lengths a decoded submission declares.
func (m Matrix) Size() int {
	n := 1
	for _, axis := range []int{len(m.Workloads), len(m.Rules), len(m.Attacks), len(m.Arrivals), len(m.Fs), len(m.Seeds)} {
		if axis > 0 {
			if n > math.MaxInt/axis {
				return math.MaxInt
			}
			n *= axis
		}
	}
	return n
}

// Cells expands the cartesian grid. Each cell is the base spec with the
// axis values substituted, a generated Name, and its derived seed; the
// order is deterministic: workloads × rules × attacks × arrivals × fs ×
// seeds with seeds varying fastest.
func (m Matrix) Cells() []Spec {
	workloads := orBase(m.Workloads, m.Base.Workload)
	rules := orBase(m.Rules, m.Base.Rule)
	attacks := orBase(m.Attacks, m.Base.Attack)
	arrivals := orBase(m.Arrivals, m.Base.Arrival)
	fs := m.Fs
	if len(fs) == 0 {
		fs = []int{m.Base.F}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{m.Base.Seed}
	}

	out := make([]Spec, 0, m.Size())
	for iw, wl := range workloads {
		for ir, rule := range rules {
			for ia, atk := range attacks {
				if strings.EqualFold(strings.TrimSpace(atk), "none") {
					atk = "none"
				}
				for iarr, arr := range arrivals {
					for ifv, f := range fs {
						for _, seed := range seeds {
							cell := m.Base
							cell.Workload = wl
							cell.Rule = rule
							cell.Attack = atk
							cell.Arrival = arr
							cell.F = f
							cell.Seed = seed
							if m.DeriveSeeds {
								// The arrival coordinate joins the hash
								// only when the axis is declared:
								// pre-arrival grids must keep deriving
								// the exact seeds they always did, or
								// every stored result would silently
								// miss.
								if len(m.Arrivals) > 0 {
									cell.Seed = deriveSeed(seed, iw, ir, ia, iarr, ifv)
								} else {
									cell.Seed = deriveSeed(seed, iw, ir, ia, ifv)
								}
							}
							cell.Name = ""
							label := cell.Label()
							if m.Base.Name != "" {
								label = m.Base.Name + ": " + label
							}
							cell.Name = label
							out = append(out, cell)
						}
					}
				}
			}
		}
	}
	return out
}

// Validate checks every cell of the expanded grid, so malformed axis
// entries in a config file are reported before any training starts.
func (m Matrix) Validate() error {
	cells := m.Cells()
	if len(cells) == 0 {
		return fmt.Errorf("empty matrix: %w", ErrBadSpec)
	}
	for i, cell := range cells {
		if err := cell.Validate(); err != nil {
			return fmt.Errorf("cell %d (%s): %w", i, cell.Label(), err)
		}
	}
	return nil
}

// ParseMatrixJSON decodes a Matrix from JSON, rejecting unknown fields.
func ParseMatrixJSON(data []byte) (Matrix, error) {
	var m Matrix
	if err := decodeStrict(data, &m); err != nil {
		return Matrix{}, fmt.Errorf("decoding scenario matrix: %w: %w", err, ErrBadSpec)
	}
	return m, nil
}

// orBase returns the axis when non-empty and the singleton base value
// otherwise.
func orBase(axis []string, base string) []string {
	if len(axis) > 0 {
		return axis
	}
	return []string{base}
}

// deriveSeed hashes a replicate seed with the cell's axis coordinates
// through SplitMix64 steps — deterministic, order-independent of
// execution, and decorrelated across cells.
func deriveSeed(seed uint64, coords ...int) uint64 {
	state := seed
	for _, c := range coords {
		state += 0x9E3779B97F4A7C15 * (uint64(c) + 1)
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		state = z ^ (z >> 31)
	}
	return state
}
