package main

import (
	"fmt"
	"math"

	"krum"
)

// aggShape describes one aggregate_* workload: the library path a
// parameter-server author calls, with no training around it.
type aggShape struct {
	n, f, d int
	// ring is how many pre-generated rounds of proposals are cycled.
	ring int
	// multikrumM > 0 alternates krum with multikrum(m) round by round.
	multikrumM int
	// replay enables the engine's cross-round cache and replaces rows
	// per an arrival trace, declared through RoundContext.SetChanged.
	replay bool
	// verifyEvery-th rounds are recomputed on a cache-less context.
	verifyEvery int
	warmups     int
}

// Arrival process of aggregate_replay: each row is replaced with
// probability arriveP per round, and always once it is arriveTau
// rounds stale (bernoulli(p=0.25,tau=8) in the arrival registry's
// terms, generated here so the load does not depend on that registry).
const (
	arriveP   = 0.25
	arriveTau = 8
)

// byzantineSigma is the spread of the f Byzantine rows, N(0, 200²·I),
// against an honest cluster μ_t + N(0, I).
const byzantineSigma = 200

func setupAggregateDense(e env) (*instance, error) {
	return newAggregate(e.seed, aggShape{n: 40, f: 10, d: 10_000, ring: 16, multikrumM: 20, verifyEvery: 100, warmups: 32})
}

func setupAggregateReplay(e env) (*instance, error) {
	return newAggregate(e.seed, aggShape{n: 40, f: 10, d: 10_000, ring: 16, multikrumM: 20, replay: true, verifyEvery: 100, warmups: 64})
}

func setupAggregateLargeN(e env) (*instance, error) {
	return newAggregate(e.seed, aggShape{n: 1000, f: 300, d: 1000, ring: 3, verifyEvery: 25, warmups: 2})
}

// aggregate is the state of one aggregate_* instance. One goroutine
// owns it, as one training loop owns an Engine.
type aggregate struct {
	aggShape
	rules  []krum.ContextRule
	engine *krum.Engine
	// rows[r][i] is proposal i of ring slot r. Honest rows are
	// center + drift_r + N(0, I), the drift (0.3·N(0, I) per slot)
	// standing in for the gradient's movement between rounds.
	rows   [][][]float64
	center []float64
	arrive *splitMix64

	// cur is the round's proposal set; in replay mode rows of older
	// slots linger in it until their arrival.
	cur     [][]float64
	lag     []int
	changed []int
	dst     []float64
	rule    krum.ContextRule

	rounds, rowsChanged int
}

func newAggregate(seed uint64, shape aggShape) (*instance, error) {
	rng := newSplitMix64(seed)
	a := &aggregate{aggShape: shape, engine: krum.NewEngine(0), arrive: rng.fork(), dst: make([]float64, shape.d)}
	a.rules = []krum.ContextRule{krum.NewKrum(shape.f)}
	if shape.multikrumM > 0 {
		a.rules = append(a.rules, krum.NewMultiKrum(shape.f, shape.multikrumM))
	}
	if shape.replay {
		a.engine.EnableCache()
	}
	gen := rng.fork()
	a.center = make([]float64, shape.d)
	for j := range a.center {
		a.center[j] = 3 * gen.norm()
	}
	drift := make([]float64, shape.d)
	for r := 0; r < shape.ring; r++ {
		for j := range drift {
			drift[j] = 0.3 * gen.norm()
		}
		slot := make([][]float64, shape.n)
		for i := range slot {
			row := make([]float64, shape.d)
			for j := range row {
				if i < shape.n-shape.f {
					row[j] = a.center[j] + drift[j] + gen.norm()
				} else {
					row[j] = byzantineSigma * gen.norm()
				}
			}
			slot[i] = row
		}
		a.rows = append(a.rows, slot)
	}
	a.cur = append([][]float64(nil), a.rows[0]...)
	a.lag = make([]int, shape.n)

	for k := 0; k < shape.warmups; k++ {
		if _, failed := a.round(k, nil); failed > 0 {
			return nil, fmt.Errorf("warm-up round %d failed", k)
		}
	}
	a.rounds, a.rowsChanged = 0, 0
	first := shape.warmups
	return &instance{
		clients: 1,
		do:      func(_, k int, tr *tracer) (int, int) { return a.round(first+k, tr) },
		verify: func(_, k int) int {
			if k%shape.verifyEvery != 0 {
				return 0
			}
			return a.verifyRound()
		},
		check:  func() (int, error) { return 0, nil },
		layers: a.layers,
		close:  func() float64 { return 0 },
	}, nil
}

// advance makes cur the proposals of round k. Dense: the whole ring
// slot. Replay: each row is replaced by the slot's row when the
// arrival process says so; the rest replay. Consecutive arrivals of a
// row are at most arriveTau < ring rounds apart, so an arrival always
// brings different contents.
func (a *aggregate) advance(k int) {
	slot := k % a.ring
	a.changed = a.changed[:0]
	for i := range a.cur {
		if a.replay && a.arrive.float() >= arriveP && a.lag[i] < arriveTau-1 {
			a.lag[i]++
			continue
		}
		a.lag[i] = 0
		a.cur[i] = a.rows[slot][i]
		a.changed = append(a.changed, i)
	}
}

// round aggregates round k's proposals into a.dst through the engine.
// Traced, it asks for the distance matrix first, so the build (or row
// update) and the selection on the built context are timed apart.
func (a *aggregate) round(k int, tr *tracer) (ops, failed int) {
	a.advance(k)
	a.rule = a.rules[k%len(a.rules)]
	ctx := a.engine.Round(a.cur)
	if a.replay {
		ctx.SetChanged(a.changed)
	}
	a.rounds++
	a.rowsChanged += len(a.changed)
	if tr != nil {
		distances := "vec.build"
		if a.replay {
			distances = "vec.update_rows"
		}
		op := int64(k)
		root := tr.begin("aggregate.round", -1, op)
		b := tr.begin(distances, root.id, op)
		ctx.Distances()
		tr.end(b)
		s := tr.begin("core.select."+ruleName(a.rule.Name()), root.id, op)
		err := a.rule.AggregateContext(a.dst, ctx)
		tr.end(s)
		tr.end(root)
		return 1, boolToInt(err != nil)
	}
	return 1, boolToInt(a.rule.AggregateContext(a.dst, ctx) != nil)
}

// verifyRound checks the round just aggregated two ways: the output
// must equal, bit for bit, what a fresh cache-less context computes
// from the same proposals; and it must sit inside the honest cluster
// (f < n/2 − 1 rows at N(0, 200²·I) may not drag it out — the
// resilience the rule exists for).
func (a *aggregate) verifyRound() int {
	ref := make([]float64, a.d)
	if err := a.rule.AggregateContext(ref, krum.NewRoundContext(a.cur)); err != nil {
		return 1
	}
	for j := range ref {
		if math.Float64bits(ref[j]) != math.Float64bits(a.dst[j]) {
			return 1
		}
	}
	// An honest row, or a mean of honest rows, is within about 1.1·d
	// of the center (squared); a Byzantine row is about 40 000·d away.
	dist := 0.0
	for j, c := range a.center {
		dist += (a.dst[j] - c) * (a.dst[j] - c)
	}
	return boolToInt(dist > 4*float64(a.d))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// layers reports the distance and selection layers under the names of
// the path this shape exercises.
func (a *aggregate) layers(lc *layerContext) error {
	tr, out := lc.tr, lc.out
	perRound := func(name string) float64 { return tr.msPer(name, tr.count(name)) }
	switch {
	case a.n >= 1000:
		out["vec.build_large_n_ms"] = perRound("vec.build")
		out["core.select_large_n_ms"] = perRound("core.select.krum")
	case a.replay:
		out["vec.update_rows_ms"] = perRound("vec.update_rows")
		out["vec.changed_frac"] = float64(a.rowsChanged) / float64(a.rounds*a.n)
	default:
		out["vec.build_ms"] = perRound("vec.build")
		// Computed, not counted: the n(n−1)/2 pair products of a full
		// build cost 2d flops each.
		if ms := perRound("vec.build"); ms > 0 {
			out["vec.build_gflops"] = float64(a.n*(a.n-1)*a.d) / (ms * 1e6)
		}
	}
	if a.n < 1000 {
		out["core.select_us.krum"] = 1000 * perRound("core.select.krum")
		out["core.select_us.multikrum"] = 1000 * perRound("core.select.multikrum")
	}
	return nil
}
