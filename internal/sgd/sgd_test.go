package sgd

import (
	"errors"
	"testing"
)

func TestConstantSchedule(t *testing.T) {
	s := Constant{Gamma: 0.3}
	for _, tt := range []int{0, 1, 100} {
		if s.Rate(tt) != 0.3 {
			t.Errorf("Rate(%d) = %v", tt, s.Rate(tt))
		}
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestInverseTSchedule(t *testing.T) {
	s := InverseT{Gamma: 1, Power: 1}
	if s.Rate(0) != 1 {
		t.Errorf("Rate(0) = %v", s.Rate(0))
	}
	if s.Rate(1) != 0.5 {
		t.Errorf("Rate(1) = %v", s.Rate(1))
	}
	if s.Rate(9) != 0.1 {
		t.Errorf("Rate(9) = %v", s.Rate(9))
	}
	// T0 stretch.
	s2 := InverseT{Gamma: 1, Power: 1, T0: 10}
	if s2.Rate(10) != 0.5 {
		t.Errorf("T0 Rate(10) = %v", s2.Rate(10))
	}
}

func TestInverseTValidate(t *testing.T) {
	tests := []struct {
		name string
		s    InverseT
		ok   bool
	}{
		{name: "valid 0.75", s: InverseT{Gamma: 0.1, Power: 0.75}, ok: true},
		{name: "valid 1.0", s: InverseT{Gamma: 0.1, Power: 1}, ok: true},
		{name: "power too small", s: InverseT{Gamma: 0.1, Power: 0.5}, ok: false},
		{name: "power too large", s: InverseT{Gamma: 0.1, Power: 1.1}, ok: false},
		{name: "non-positive gamma", s: InverseT{Gamma: 0, Power: 0.75}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.s.Validate()
			if tt.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tt.ok && !errors.Is(err, ErrBadSchedule) {
				t.Errorf("err = %v, want ErrBadSchedule", err)
			}
		})
	}
}

// The Robbins–Monro conditions themselves, checked numerically: partial
// sums of γ_t diverge while partial sums of γ_t² converge.
func TestInverseTRobbinsMonroNumerically(t *testing.T) {
	s := InverseT{Gamma: 1, Power: 0.75}
	var sum, sumSq float64
	var sum1k float64
	for i := 0; i < 100000; i++ {
		g := s.Rate(i)
		sum += g
		sumSq += g * g
		if i == 999 {
			sum1k = sum
		}
	}
	if sum < 2*sum1k {
		t.Errorf("Σγ looks convergent: sum(1e5)=%v vs sum(1e3)=%v", sum, sum1k)
	}
	// For p = 0.75, Σγ² = Σ(1+t)^-1.5 converges to ≈ ζ(1.5) ≈ 2.612.
	if sumSq > 3 {
		t.Errorf("Σγ² = %v diverging", sumSq)
	}
}

func TestStepSchedule(t *testing.T) {
	s := Step{Gamma: 1, Every: 10, Factor: 0.5}
	if s.Rate(0) != 1 || s.Rate(9) != 1 {
		t.Error("no decay expected before first boundary")
	}
	if s.Rate(10) != 0.5 {
		t.Errorf("Rate(10) = %v", s.Rate(10))
	}
	if s.Rate(25) != 0.25 {
		t.Errorf("Rate(25) = %v", s.Rate(25))
	}
	// Every <= 0 degrades to constant.
	if (Step{Gamma: 2}).Rate(100) != 2 {
		t.Error("Every=0 should be constant")
	}
}
