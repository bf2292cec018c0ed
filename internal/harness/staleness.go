package harness

import (
	"fmt"
	"io"

	"krum/scenario"
)

// StalenessSweep holds the bounded-staleness experiment grid: for each
// arrival process, the final accuracy of unattacked averaging (the
// baseline cost of staleness alone) and of Krum under the Gaussian
// attack (resilience while proposals go stale), plus the incremental
// distance-cache activity the async traffic generated.
type StalenessSweep struct {
	// Arrivals lists the swept arrival-process specs, "sync" first.
	Arrivals []string
	// AvgFinal is unattacked averaging's final accuracy per arrival.
	AvgFinal []float64
	// KrumFinal is attacked Krum's final accuracy per arrival.
	KrumFinal []float64
	// KrumByzRate is attacked Krum's Byzantine-selection rate per
	// arrival (NaN when selection was never tracked).
	KrumByzRate []float64
	// Builds and RowUpdates sum the cells' Result.Stats over the sweep:
	// async replay should convert most per-round work from full builds
	// into row updates. Cells served from a store did no work and add 0.
	Builds, RowUpdates uint64
}

// stalenessArrivals is the swept grid: the synchronous control, the
// deterministic worst-case rotation at two bounds, i.i.d. availability
// at two rates, and one Kardam-damped variant.
func stalenessArrivals() []string {
	return []string{
		"sync",
		"bounded(tau=2)",
		"bounded(tau=5)",
		"bernoulli(p=0.5,tau=5)",
		"bernoulli(p=0.25,tau=8)",
		"bernoulli(p=0.5,tau=5,damp=0.5)",
	}
}

// RunStaleness executes the staleness sweep (experiment E8): the image
// workload trained across the arrival grid, one unattacked averaging
// arm and one Gaussian-attacked Krum arm per arrival process. Every
// cell runs with the incremental distance cache on — asynchronous
// replay is exactly the partial-update traffic the cache converts into
// row updates, and the sweep reports the observed build/update split.
func RunStaleness(w io.Writer, scale Scale, seed uint64) (*StalenessSweep, error) {
	const f = 4
	arrivals := stalenessArrivals()

	base := figBase(scale, seed, 600)
	base.Incremental = true
	n := base.N
	avgArm := scenario.Matrix{Base: base, Rules: []string{"average"}, Arrivals: arrivals, Fs: []int{0}}
	krumBase := base
	krumBase.TrackSelection = true
	krumArm := scenario.Matrix{
		Base:     krumBase,
		Rules:    []string{fmt.Sprintf("krum(f=%d)", f)},
		Attacks:  []string{"gaussian(sigma=200)"},
		Arrivals: arrivals,
		Fs:       []int{f},
	}
	cells := append(avgArm.Cells(), krumArm.Cells()...)

	results, storeErr, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	sweep := &StalenessSweep{
		Arrivals:    arrivals,
		AvgFinal:    make([]float64, len(arrivals)),
		KrumFinal:   make([]float64, len(arrivals)),
		KrumByzRate: make([]float64, len(arrivals)),
	}
	for _, cr := range results {
		sweep.Builds += cr.Result.Stats.Builds
		sweep.RowUpdates += cr.Result.Stats.RowUpdates
	}
	for i := range arrivals {
		sweep.AvgFinal[i] = finalOrChance(results[i].Result)
		kr := results[len(arrivals)+i].Result
		sweep.KrumFinal[i] = finalOrChance(kr)
		sweep.KrumByzRate[i] = kr.ByzantineSelectionRate()
	}

	section(w, "E8 — bounded-staleness asynchronous arrivals (Kardam-style)")
	fmt.Fprintf(w, "n = %d workers; averaging unattacked, krum under gaussian(sigma=200) with f = %d\n", n, f)
	fmt.Fprintf(w, "incremental distance cache over the sweep: %d full builds, %d row updates\n\n",
		sweep.Builds, sweep.RowUpdates)
	fmt.Fprintf(w, "%-34s %12s %12s %14s\n", "arrival", "avg final", "krum final", "krum byz rate")
	for i, arr := range arrivals {
		fmt.Fprintf(w, "%-34s %12.3f %12.3f %14.3f\n",
			arr, sweep.AvgFinal[i], sweep.KrumFinal[i], sweep.KrumByzRate[i])
	}
	return sweep, storeErr
}
