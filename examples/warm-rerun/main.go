// warm-rerun demonstrates the content-addressed result store: the same
// scenario grid is executed twice against one store directory — the
// cold pass trains every cell and writes it through, the warm pass is
// served entirely from the store (zero training rounds, zero
// distance-matrix builds) with byte-identical results. The directory
// survives the process, so a third run in a NEW process would be just
// as warm; krum-experiments -store and the krum-scenariod service use
// exactly this mechanism for resumable experiment grids. Each run
// stores into a fresh temporary directory of its own and removes it on
// exit.
//
//	go run ./examples/warm-rerun
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"krum/scenario"
	"krum/scenario/store"
)

func main() {
	m := scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "gmm(k=3,dim=8,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=100)",
			N:         11,
			F:         2,
			Rounds:    120,
			BatchSize: 16,
			Seed:      7,
			EvalEvery: 30,
			EvalBatch: 256,
		},
		Rules:   []string{"krum", "multikrum(m=6)", "average"},
		Attacks: []string{"none", "gaussian(sigma=200)"},
	}

	dir, err := os.MkdirTemp("", "krum-warm-rerun-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	runner := &scenario.Runner{Store: st}

	start := time.Now()
	cold, err := runner.Run(m)
	if err != nil {
		log.Fatal(err)
	}
	coldTime := time.Since(start)

	start = time.Now()
	warm, err := runner.Run(m)
	if err != nil {
		log.Fatal(err)
	}
	warmTime := time.Since(start)

	identical, cachedCells := 0, 0
	for i := range cold {
		a, _ := json.Marshal(cold[i].Result)
		b, _ := json.Marshal(warm[i].Result)
		if string(a) == string(b) {
			identical++
		}
		if warm[i].Cached {
			cachedCells++
		}
	}

	fmt.Printf("grid: %d cells (%d rules × %d attacks)\n", m.Size(), len(m.Rules), len(m.Attacks))
	fmt.Printf("cold run: %8.1fms — every cell trained and persisted\n", float64(coldTime.Microseconds())/1000)
	fmt.Printf("warm run: %8.1fms — %d/%d cells served from %s\n", float64(warmTime.Microseconds())/1000, cachedCells, len(warm), dir)
	fmt.Printf("byte-identical results: %d/%d\n", identical, len(cold))
	fmt.Printf("speedup: %.0f×\n", float64(coldTime)/float64(warmTime))
	fmt.Printf("store: %s\n", st.Stats())
}
