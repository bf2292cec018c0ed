package krum_test

import (
	"strings"
	"testing"

	"krum"
	"krum/attack"
	"krum/workload"
)

// floatParams lists every float parameter of every registry axis, by
// "axis/name". TestRegistriesRejectNonFiniteFloats checks the list is
// complete: a parameter that takes 0.5 must be in it.
var floatParams = map[string][]string{
	"attack/gaussian":        {"sigma"},
	"attack/hiddencoord":     {"margin"},
	"attack/littleisenough":  {"z"},
	"attack/medoidcollusion": {"offset"},
	"attack/omniscient":      {"scale"},
	"schedule/const":         {"gamma"},
	"schedule/inverset":      {"gamma", "power", "t0"},
	"schedule/step":          {"gamma", "factor"},
	"workload/gmm":           {"radius", "sigma"},
	"workload/mnist":         {"noise"},
	"workload/mnistconv":     {"noise"},
	"workload/regression":    {"noise"},
	"workload/spambase":      {"spamrate"},
	"arrival/bernoulli":      {"p", "damp"},
	"arrival/bounded":        {"damp"},
}

// TestRegistriesRejectNonFiniteFloats: NaN, +Inf and −Inf are refused
// by every float parameter of every registry — the rule, attack,
// schedule, workload and arrival axes — whether or not the constructor
// behind it would have caught them: a NaN spread or spam rate once
// parsed and ran. Each parameter is set on the axis's minimal spec for
// the name, which parses as it stands.
func TestRegistriesRejectNonFiniteFloats(t *testing.T) {
	axes := []struct {
		axis, usage string
		parse       func(spec string) error
	}{
		{"rule", krum.RuleUsage(), func(s string) error {
			_, err := krum.ParseRuleIn(krum.SpecContext{N: 15, F: 3}, s)
			return err
		}},
		{"attack", attack.Usage(), func(s string) error { _, err := attack.Parse(s); return err }},
		{"schedule", krum.ScheduleUsage(), func(s string) error { _, err := krum.ParseSchedule(s); return err }},
		{"workload", workload.Usage(), func(s string) error {
			_, err := workload.Parse(workload.SpecContext{Seed: 1}, s)
			return err
		}},
		{"arrival", krum.ArrivalUsage(), func(s string) error { _, err := krum.ParseArrival(s); return err }},
	}
	listed := 0
	for _, ax := range axes {
		for _, part := range strings.Split(ax.usage, "|") {
			name, params, _ := strings.Cut(strings.TrimSpace(part), "(")
			floats := floatParams[ax.axis+"/"+name]
			for _, p := range strings.Split(strings.TrimSuffix(params, ")"), ",") {
				if p == "" {
					continue
				}
				isFloat := false
				for _, f := range floats {
					isFloat = isFloat || f == p
				}
				probe := withParam(minimalSpec(name), p, "0.5")
				if err := ax.parse(probe); (err == nil) != isFloat {
					t.Errorf("%s %s: listed as float %v, but %q gives %v", ax.axis, name, isFloat, probe, err)
				}
				if !isFloat {
					continue
				}
				listed++
				for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "1e999"} {
					if spec := withParam(minimalSpec(name), p, v); ax.parse(spec) == nil {
						t.Errorf("%s %q parsed", ax.axis, spec)
					}
				}
			}
		}
	}
	want := 0
	for _, ps := range floatParams {
		want += len(ps)
	}
	if listed != want {
		t.Errorf("checked %d float parameters, the table lists %d: a listed name or parameter is no longer registered", listed, want)
	}
}

// withParam returns spec with key set to value, replacing a value the
// spec already gives it.
func withParam(spec, key, value string) string {
	name, args, ok := strings.Cut(spec, "(")
	if !ok {
		return name + "(" + key + "=" + value + ")"
	}
	parts := strings.Split(strings.TrimSuffix(args, ")"), ",")
	set := false
	for i, kv := range parts {
		if strings.HasPrefix(kv, key+"=") {
			parts[i], set = key+"="+value, true
		}
	}
	if !set {
		parts = append(parts, key+"="+value)
	}
	return name + "(" + strings.Join(parts, ",") + ")"
}
