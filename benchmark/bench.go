package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// workers is the closed-loop concurrency of every workload: Runner
// workers for the in-process grids, clients (and coordinator/worker
// slots) for the service. It is fixed, not NumCPU, so hosts compare.
const workers = 2

// segments is how many consecutive equal-count slices a measured
// window is cut into; a throughput metric is the median of their rates,
// so stalls covering less than half of them do not move it.
const segments = 15

// setupRepeats is how often a run sets the workload up; setup_s is the
// median, so one slow process start does not decide it.
const setupRepeats = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the benchmark always reports.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order.
// BENCHMARK.json carries their direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_mid_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// env is what a workload's setup receives: nothing but the seed and
// where the programs under test and scratch space live.
type env struct {
	seed uint64
	// scenariod is the krum-scenariod binary run.sh built.
	scenariod string
	// tmp is a directory for store directories, journals and logs,
	// removed when the run ends.
	tmp string
}

// instance is one set-up workload, ready to take requests.
type instance struct {
	// clients is the number of closed-loop clients driving do.
	clients int
	// do performs client's k-th request and returns the ops it carried
	// and how many of them failed. tr is nil in an untraced window.
	do func(client, k int, tr *tracer) (ops, failed int)
	// verify, when set, runs after each request on the client's
	// goroutine, outside the request's timing, and returns failed ops.
	verify func(client, k int) int
	// check runs once after the last window, with the programs under
	// test still up: it compares outputs with references and returns
	// the ops found wrong, or an error when a whole-run invariant broke.
	check func() (failed int, err error)
	// layers fills the workload's per-layer metrics after a traced
	// window (traced runs only).
	layers func(lc *layerContext) error
	// close releases everything setup started and returns the summed
	// peak RSS of the subprocesses it stopped (0 when there were none).
	// Closing twice is harmless.
	close func() (childRSSMB float64)
}

// layerContext is what a traced run hands to instance.layers.
type layerContext struct {
	tr *tracer
	// ops counts the operations of the traced window.
	ops float64
	// seconds is the time left for stand-alone probes of single layers.
	seconds float64
	out     map[string]float64
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// op is the unit of ops_per_s; request is what latency_mid_ms times.
	op, request string
	why         string
	// traceEvery-th operations' spans are kept by a traced window, so
	// that each trace file holds a few thousand operations.
	traceEvery int64
	setup      func(e env) (*instance, error)
}

// workloads is the benchmark's contract with later changes: names and
// shapes here are what issues cite. Each why repeats in BENCHMARK.json.
var workloads = []workloadDef{
	{"grid_small", "cell", "12-cell sweep", "thousands of tiny cells: per-cell fixed costs (sampling, gradient, result encode, store, compile, allocation) dominate, the distance kernel is under a tenth", 64, setupGridSmall},
	{"train_mnist_attack", "cell", "13-cell sweep", "few long cells at d=12826: sampling and model matmuls dominate, per-cell fixed costs vanish; carries the science check (Krum holds, averaging breaks)", 1, setupTrainMNIST},
	{"aggregate_dense", "round", "round", "library path, n=40 d=10000, every row new each round: the full O(n^2 d) distance build (Lemma 4.1) does nearly all the work", 8, setupAggregateDense},
	{"aggregate_replay", "round", "round", "same shape with the cross-round cache and a bernoulli(p=0.25,tau=8) arrival trace: the incremental row-update path", 8, setupAggregateReplay},
	{"aggregate_large_n", "round", "round", "n=1000 f=300 d=1000 krum: the distance build and selection at n far above 40", 1, setupAggregateLargeN},
	{"service_overlap", "cell", "48-cell grid", "coordinator + worker subprocesses under 75%-overlapping grids: submit, store reads and writes, fleet dispatch, journal and stream encode dominate; compute is tiny", 1, setupServiceOverlap},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// driver runs an instance's clients; request indices continue across
// windows so a later window never repeats an earlier one's inputs.
type driver struct {
	inst *instance
	next []int
}

func newDriver(inst *instance) *driver {
	return &driver{inst: inst, next: make([]int, inst.clients)}
}

// window drives every client closed-loop for seconds and returns the
// completed requests ordered by completion, plus the ops the untimed
// verify hook found wrong. A request that is under way when the time is up
// completes and counts.
func (dr *driver) window(seconds float64, tr *tracer) (reqs []request, verifyFailed int) {
	d := time.Duration(seconds * float64(time.Second))
	per := make([][]request, dr.inst.clients)
	bad := make([]int, dr.inst.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				k := dr.next[c]
				dr.next[c]++
				start := time.Since(t0)
				ops, failed := dr.inst.do(c, k, tr)
				per[c] = append(per[c], request{client: c, start: start, end: time.Since(t0), ops: ops, failed: failed})
				if dr.inst.verify != nil {
					bad[c] += dr.inst.verify(c, k)
				}
			}
		}()
	}
	wg.Wait()
	for c := range per {
		reqs = append(reqs, per[c]...)
		verifyFailed += bad[c]
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].end < reqs[j].end })
	return reqs, verifyFailed
}

func countOps(reqs []request) (ops, failed int) {
	for _, r := range reqs {
		ops += r.ops
		failed += r.failed
	}
	return ops, failed
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Spread is, per end-to-end metric that is a median of repeated
	// readings (segments, set-ups), the interquartile range of the
	// readings as a share of their median, over √n — the within-run
	// noise of the reported value, which -compare holds against the
	// bound.
	Spread map[string]float64 `json:"spread,omitempty"`
	// Info carries numbers that explain the run but are not metrics.
	Info map[string]float64 `json:"info,omitempty"`
	// Problem says why Correct is false.
	Problem string `json:"problem,omitempty"`
}

// runWorkload sets the workload up, measures it for about seconds, and
// checks its outputs. An untraced run yields the end-to-end metrics, a
// traced run (see measureTraced) the per-layer metrics.
func runWorkload(w workloadDef, e env, seconds float64, traced bool, traceDir string) (runResult, error) {
	res := runResult{Workload: w.name, Seed: e.seed, Traced: traced, Metrics: map[string]metric{}, Info: map[string]float64{}}

	var inst *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return res, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() { inst.close() }()
	dr := newDriver(inst)

	var reqs []request
	var verifyFailed int
	var lc *layerContext
	if traced {
		var err error
		if reqs, verifyFailed, lc, err = measureTraced(w, dr, seconds, traceDir, res.Info); err != nil {
			return res, err
		}
	} else {
		reqs, verifyFailed = dr.window(seconds, nil)
	}
	res.Attempted, res.Failed = countOps(reqs)
	if res.Attempted == 0 {
		return res, fmt.Errorf("%s completed no operation in %.0f s", w.name, seconds)
	}
	checkFailed, checkErr := inst.check()
	res.Failed += verifyFailed + checkFailed
	res.Correct = res.Failed == 0 && checkErr == nil
	switch {
	case checkErr != nil:
		res.Problem = checkErr.Error()
	case res.Failed > 0:
		res.Problem = fmt.Sprintf("%d of %d ops failed or were served wrong", res.Failed, res.Attempted)
	}

	if traced {
		// After check: the service's store probe ends its processes.
		if err := inst.layers(lc); err != nil {
			return res, fmt.Errorf("layer metrics of %s: %w", w.name, err)
		}
		for _, def := range perLayer {
			res.Metrics[def.name] = metric{lc.out[def.name], def.unit}
		}
		return res, nil
	}
	rss := inst.close()
	if rss == 0 {
		rss = selfPeakRSSMB()
	}
	rates := segmentRates(reqs, inst.clients, segments)
	values := map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      median(rates),
		"latency_mid_ms": midmean(latencies(reqs)),
		"peak_rss_mb":    rss,
	}
	for _, def := range endToEnd {
		res.Metrics[def.name] = metric{values[def.name], def.unit}
	}
	res.Spread = map[string]float64{
		"setup_s":        medianNoise(setups),
		"ops_per_s":      medianNoise(rates),
		"latency_mid_ms": medianNoise(segmentLatencyMid(reqs, segments)),
	}
	res.Info["requests"] = float64(len(reqs))
	res.Info["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// measureTraced spends 30% of seconds on an untraced window, 50% on a
// traced window of the same request stream, and leaves the rest to the
// workload's stand-alone layer probes. It returns both windows'
// requests and the context instance.layers completes; the process-wide
// numbers (tracing overhead, CPU and allocations per op of the untraced
// window) are already in it. Self times of the kept spans go to info.
func measureTraced(w workloadDef, dr *driver, seconds float64, traceDir string, info map[string]float64) ([]request, int, *layerContext, error) {
	clients := dr.inst.clients
	var before, after runtime.MemStats
	cpu0 := cpuSeconds()
	runtime.ReadMemStats(&before)
	plain, bad1 := dr.window(0.3*seconds, nil)
	runtime.ReadMemStats(&after)
	cpu := cpuSeconds() - cpu0

	tr := newTracer(w.traceEvery)
	traced, bad2 := dr.window(0.5*seconds, tr)
	plainOps, _ := countOps(plain)
	tracedOps, _ := countOps(traced)
	if plainOps == 0 || tracedOps == 0 {
		return nil, 0, nil, fmt.Errorf("%s completed no operation in a window of a %.0f s traced run", w.name, seconds)
	}
	out := map[string]float64{
		"trace.overhead_frac":  1 - median(segmentRates(traced, clients, segments))/median(segmentRates(plain, clients, segments)),
		"trace.spans_kept":     float64(tr.kept()),
		"proc.cpu_ms_per_op":   1000 * cpu / float64(plainOps),
		"proc.allocs_per_op":   float64(after.Mallocs-before.Mallocs) / float64(plainOps),
		"proc.alloc_kb_per_op": float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(plainOps),
	}
	for name, ns := range selfTimes(tr.spans) {
		info["self_ms."+name] = float64(ns) / 1e6
	}
	path, err := tr.write(traceDir, w.name)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("# trace: %d spans kept in %s\n", tr.kept(), path)
	lc := &layerContext{tr: tr, ops: float64(tracedOps), seconds: 0.2 * seconds, out: out}
	return append(plain, traced...), bad1 + bad2, lc, nil
}
