// Package sgd holds the learning-rate schedules γ_t of the paper's
// Section 2 update rule x_{t+1} = x_t − γ_t·F(V_1,...,V_n), including
// the family satisfying the Robbins–Monro conditions of Proposition 4.3
// (Σγ_t = ∞, Σγ_t² < ∞), and their spec registry. The step itself is
// the one vec.Axpy in distsgd.Run.
package sgd

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadSchedule is returned for schedules with invalid parameters.
var ErrBadSchedule = errors.New("sgd: bad schedule parameter")

// Schedule maps the round index t = 0, 1, 2, ... to the learning rate γ_t.
type Schedule interface {
	// Rate returns γ_t for round t.
	Rate(t int) float64
	// Name identifies the schedule in experiment logs. For every
	// built-in the returned string is a valid registry spec:
	// ParseSchedule(s.Name()) reconstructs s.
	Name() string
}

// Constant is the fixed learning-rate schedule γ_t = Gamma. It does NOT
// satisfy Σγ_t² < ∞ and is provided for short-horizon experiments where
// the paper's almost-sure convergence is not the quantity of interest.
type Constant struct {
	// Gamma is the rate; must be positive.
	Gamma float64
}

var _ Schedule = Constant{}

// Rate implements Schedule.
func (c Constant) Rate(int) float64 { return c.Gamma }

// Name implements Schedule.
func (c Constant) Name() string { return fmt.Sprintf("const(gamma=%g)", c.Gamma) }

// InverseT is the Robbins–Monro family γ_t = Gamma / (1 + t/T0)^Power.
// For 0.5 < Power ≤ 1 it satisfies both conditions (ii) of
// Proposition 4.3: Σγ_t = ∞ and Σγ_t² < ∞.
type InverseT struct {
	// Gamma is the initial rate γ_0; must be positive.
	Gamma float64
	// Power is the decay exponent; the convergence theorem needs
	// 0.5 < Power ≤ 1.
	Power float64
	// T0 stretches the decay horizon; 0 means 1 (no stretch).
	T0 float64
}

var _ Schedule = InverseT{}

// Rate implements Schedule.
func (s InverseT) Rate(t int) float64 {
	t0 := s.T0
	if t0 <= 0 {
		t0 = 1
	}
	return s.Gamma / math.Pow(1+float64(t)/t0, s.Power)
}

// Name implements Schedule. It reports the effective t0 (1 when unset)
// so the name round-trips through ParseSchedule.
func (s InverseT) Name() string {
	t0 := s.T0
	if t0 <= 0 {
		t0 = 1
	}
	return fmt.Sprintf("inverset(gamma=%g,power=%g,t0=%g)", s.Gamma, s.Power, t0)
}

// Validate checks the Robbins–Monro admissibility of the schedule.
func (s InverseT) Validate() error {
	if s.Gamma <= 0 {
		return fmt.Errorf("gamma = %g must be positive: %w", s.Gamma, ErrBadSchedule)
	}
	if s.Power <= 0.5 || s.Power > 1 {
		return fmt.Errorf("power = %g outside (0.5, 1]: %w", s.Power, ErrBadSchedule)
	}
	return nil
}

// Step is the piecewise-constant schedule that multiplies the rate by
// Factor every Every rounds — the "step decay" used by the deep-learning
// experiments of the full paper.
type Step struct {
	// Gamma is the initial rate.
	Gamma float64
	// Every is the number of rounds between decays; must be positive.
	Every int
	// Factor is the multiplicative decay in (0, 1].
	Factor float64
}

var _ Schedule = Step{}

// Rate implements Schedule.
func (s Step) Rate(t int) float64 {
	if s.Every <= 0 {
		return s.Gamma
	}
	return s.Gamma * math.Pow(s.Factor, float64(t/s.Every))
}

// Name implements Schedule.
func (s Step) Name() string {
	return fmt.Sprintf("step(gamma=%g,every=%d,factor=%g)", s.Gamma, s.Every, s.Factor)
}
