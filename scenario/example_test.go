package scenario_test

import (
	"fmt"

	"krum/scenario"
	"krum/scenario/store"
)

// ExampleParseMatrixJSON shows the JSON form of an experiment grid —
// the same schema krum-experiments -config and the krum-scenariod
// POST /matrices endpoint accept — and its deterministic expansion.
func ExampleParseMatrixJSON() {
	m, err := scenario.ParseMatrixJSON([]byte(`{
		"base": {
			"workload": "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			"rule": "krum",
			"schedule": "inverset(gamma=0.5,power=0.75,t0=50)",
			"n": 9, "f": 2, "rounds": 10, "batch_size": 8, "seed": 11
		},
		"rules": ["krum", "average"],
		"attacks": ["none", "gaussian(sigma=200)"]
	}`))
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	cells := m.Cells()
	fmt.Println("cells:", m.Size())
	fmt.Println("first:", cells[0].Label())
	fmt.Println("last: ", cells[len(cells)-1].Label())
	// Output:
	// cells: 4
	// first: gmm(k=3,dim=6,radius=4,sigma=0.5) rule=krum attack=none f=2 seed=11
	// last:  gmm(k=3,dim=6,radius=4,sigma=0.5) rule=average attack=gaussian(sigma=200) f=2 seed=11
}

// ExampleRunner_Run_store runs the same grid twice through a
// content-addressed result store: the first pass computes and persists
// every cell, the second is served entirely from the store — no
// training, no distance-matrix work — with byte-identical results.
// File-backed stores (store.Open) extend the same behaviour across
// process restarts.
func ExampleRunner_Run_store() {
	m := scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
			N:         9,
			F:         2,
			Rounds:    8,
			BatchSize: 8,
			Seed:      11,
		},
		Rules: []string{"krum", "average"},
	}

	st := store.NewMemory() // store.OpenDir("cells") to persist
	runner := &scenario.Runner{Workers: 2, Store: st}

	cold, err := runner.Run(m)
	if err != nil {
		fmt.Println("cold:", err)
		return
	}
	warm, err := runner.Run(m)
	if err != nil {
		fmt.Println("warm:", err)
		return
	}

	cachedCold, cachedWarm := 0, 0
	for i := range cold {
		if cold[i].Cached {
			cachedCold++
		}
		if warm[i].Cached {
			cachedWarm++
		}
	}
	stats := st.Stats()
	fmt.Printf("cold run: %d/%d cells cached\n", cachedCold, len(cold))
	fmt.Printf("warm run: %d/%d cells cached\n", cachedWarm, len(warm))
	fmt.Printf("store: %d entries, %d hits, %d misses\n", stats.Entries, stats.Hits, stats.Misses)
	// Output:
	// cold run: 0/2 cells cached
	// warm run: 2/2 cells cached
	// store: 2 entries, 2 hits, 2 misses
}
