package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"krum/distsgd"
)

// ResultStore caches cell results across runs, keyed by the cell's
// fully-resolved content (see scenario/store for the canonical-hash
// implementation and its persistence format). Runner consults it
// before running a cell and writes fresh results through, which makes
// repeated and overlapping grids near-free: a cache hit returns the
// stored result without touching the training engine — zero rounds,
// zero distance-matrix builds.
//
// Implementations must be safe for concurrent use: Runner calls
// Lookup/Save from multiple worker goroutines, and krum-scenariod
// shares one store across concurrently-running matrices.
type ResultStore interface {
	// Lookup returns the stored result for an equivalent spec, if any.
	// Implementations must return a result the caller may retain and
	// mutate (a private copy), and must treat any internal failure —
	// unkeyable spec, corrupt record — as a miss rather than an error:
	// the runner then recomputes, which is always safe.
	Lookup(Spec) (*distsgd.Result, bool)
	// Save persists a freshly-computed result for the spec. Runner only
	// saves successful cells; a Save error is reported (CellResult.
	// StoreErr) but does not invalidate the computed result.
	Save(Spec, *distsgd.Result) error
}

// CellResult is the outcome of one matrix cell.
type CellResult struct {
	// Index is the cell's position in the expansion order — results are
	// returned sorted by it, so output is deterministic regardless of
	// which goroutine finished first.
	Index int
	// Spec is the cell that ran.
	Spec Spec
	// Result is the training outcome (nil when Err is set).
	Result *distsgd.Result
	// Err is the cell's failure, if any; other cells still run.
	Err error
	// Cached reports that Result was served without executing the cell
	// in this call: a ResultStore hit, or — under a single-flight store —
	// another caller's concurrent execution of the same cell. Either
	// way the result is byte-identical (under distsgd.Result's stable
	// JSON encoding) to what a fresh run would produce — the store key
	// covers every result-affecting Spec field.
	Cached bool
	// StoreErr records a failed write-through to the ResultStore. It is
	// non-fatal: Result is still the valid computed outcome, only its
	// persistence failed. RunCells folds StoreErrs into its aggregate
	// error so they are not silently lost.
	StoreErr error
}

// Runner executes matrix cells on a bounded pool of slots. Cells that
// share a sample stream (the canonical workload, seed, n − f and batch
// size) run as one cohort, round by round together, each batch drawn
// once (distsgd.RunCohort). Every cell is an independent,
// explicitly-seeded training run, so results are identical whatever
// the slot count, grouping or scheduling — two executions of the same
// matrix agree cell for cell, and each equals ComputeCell's.
type Runner struct {
	// Workers is the number of slots: a cohort of k > 1 cells claims
	// distsgd.CohortWidth of them, a cohort of one claims one; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// OnCell, when non-nil, observes each result as its cell finishes
	// (completion order, not index order). Calls are serialized, so the
	// callback may write to shared state without locking.
	OnCell func(CellResult)
	// Store, when non-nil, is consulted for every cell before any
	// cohort forms: a hit skips the run entirely (CellResult.Cached), a
	// miss joins a cohort and its result is saved as its cell ends.
	// Because cells are pure functions of their Spec, hit results equal
	// computed results; the runner's ordering and determinism
	// guarantees are unchanged by the store. Identical specs within one
	// call compute once, the copies served Cached; two Runners that
	// miss the same cell both compute it and both save it — results
	// being identical, the duplicate write is harmless, and neither
	// ever waits on the other.
	Store ResultStore
	// Executor, when non-nil, runs cells one at a time in place of
	// cohorts — e.g. the repo benchmark's span-recording executor. A
	// custom Executor owns its own store consultation, so Store is
	// ignored when it is set.
	Executor CellExecutor
}

// Run expands the matrix and executes every cell. The returned slice is
// in expansion order; the returned error joins the per-cell failures
// (nil when every cell succeeded).
func (r *Runner) Run(m Matrix) ([]CellResult, error) {
	return r.RunCells(m.Cells())
}

// RunCells executes an explicit cell list — the escape hatch for grids
// that are not a single cartesian product (e.g. a clean arm at f = 0
// joined with an attacked arm at f > 0).
//
// Ordering and error aggregation are guaranteed as follows: the
// returned slice always has len(cells) entries with results[i].Index
// == i holding the outcome of cells[i], regardless of completion
// order, worker count, or store hits interleaved with live runs
// (OnCell alone observes completion order). The returned error is the
// errors.Join of every per-cell failure and store write-through
// failure in cell-index order — nil if and only if every cell
// succeeded and persisted; even when it is non-nil, the full result
// slice is returned, so callers can salvage the cells that succeeded.
func (r *Runner) RunCells(cells []Spec) ([]CellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("no cells to run: %w", ErrBadSpec)
	}
	slots := r.Workers
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}

	results := make([]CellResult, len(cells))
	var cbMu sync.Mutex
	report := func(cr CellResult) {
		results[cr.Index] = cr
		if r.OnCell != nil {
			cbMu.Lock()
			r.OnCell(cr)
			cbMu.Unlock()
		}
	}
	if r.Executor != nil {
		r.runEach(cells, slots, report)
	} else {
		r.runCohorts(cells, slots, report)
	}

	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("cell %d (%s): %w", i, results[i].Spec.Label(), results[i].Err))
		}
		if results[i].StoreErr != nil {
			errs = append(errs, fmt.Errorf("cell %d (%s): storing result: %w", i, results[i].Spec.Label(), results[i].StoreErr))
		}
	}
	return results, errors.Join(errs...)
}

// runEach hands the cells one at a time to min(slots, len(cells))
// goroutines, each running the Executor on one cell after another.
func (r *Runner) runEach(cells []Spec, slots int, report func(CellResult)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for range min(slots, len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				report(r.Executor.ExecuteCell(i, cells[i]))
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// job is one distinct cell to compute: the index of its first
// occurrence in the call, then those of its duplicates.
type job struct{ at []int }

// runCohorts answers the store's hits, then runs the distinct misses
// as cohorts (distsgd.RunCohort), in the order of their first cells.
// A cohort computes on w = distsgd.CohortWidth(slots, …) goroutines. A
// cohort of k > 1 cells claims w slots; a cohort of one claims one,
// as a lone cell on a pool of workers did, so that cells that share no
// stream still run side by side. A cohort starts once its slots are
// free. Each member is finished — saved and reported — as it ends, so
// a Runner never waits on another over one store.
func (r *Runner) runCohorts(cells []Spec, slots int, report func(CellResult)) {
	free := make(chan struct{}, slots)
	var wg sync.WaitGroup
	for _, jobs := range plan(cells, r.lookup(cells, slots, report)) {
		specs := make([]Spec, len(jobs))
		for i, j := range jobs {
			specs[i] = cells[j.at[0]]
		}
		cfgs, err := compileCohort(specs)
		if err != nil {
			for _, j := range jobs {
				r.finish(cells, j, nil, err, report)
			}
			continue
		}
		w, claim := distsgd.CohortWidth(slots, cfgs), 1
		if len(jobs) > 1 {
			claim = w
		}
		for range claim {
			free <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			distsgd.RunCohort(cfgs, w, func(i int, res *distsgd.Result, err error) {
				r.finish(cells, jobs[i], res, err, report)
			})
			for range claim {
				<-free
			}
		}()
	}
	wg.Wait()
}

// lookup reports every cell the store holds as a hit, looking the
// cells up on min(slots, len(cells)) goroutines, and returns which
// were.
func (r *Runner) lookup(cells []Spec, slots int, report func(CellResult)) []bool {
	hit := make([]bool, len(cells))
	if r.Store == nil {
		return hit
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(slots, len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
				if res, ok := r.Store.Lookup(cells[i]); ok {
					hit[i] = true
					report(CellResult{Index: i, Spec: cells[i], Result: res, Cached: true})
				}
			}
		}()
	}
	wg.Wait()
	return hit
}

// plan groups the cells that were not hits: each distinct spec (Name
// aside) into one job, and jobs that share a sample stream
// (Spec.stream) into one cohort. Cohorts and their jobs keep the order
// of their first cells.
func plan(cells []Spec, hit []bool) [][]*job {
	var cohorts [][]*job
	jobs := map[Spec]*job{}
	streams := map[streamKey]int{}
	for i, c := range cells {
		if hit[i] {
			continue
		}
		id := c
		id.Name = ""
		if j, ok := jobs[id]; ok {
			j.at = append(j.at, i)
			continue
		}
		j := &job{at: []int{i}}
		jobs[id] = j
		k, shared := c.stream()
		n, ok := streams[k]
		if !shared || !ok {
			n = len(cohorts)
			cohorts = append(cohorts, nil)
			if shared {
				streams[k] = n
			}
		}
		cohorts[n] = append(cohorts[n], j)
	}
	return cohorts
}

// finish reports job j's outcome: its first cell gets res or err and
// saves res to the store, and each duplicate gets a private copy
// decoded from res's bytes (Cached, as a single-flight follower's
// would be). The save is a plain Save even on a single-flight store:
// the cell was looked up before its cohort formed, and a write never
// waits on another caller's flight.
func (r *Runner) finish(cells []Spec, j *job, res *distsgd.Result, err error, report func(CellResult)) {
	cr := CellResult{Index: j.at[0], Spec: cells[j.at[0]], Result: res, Err: err}
	if err == nil && r.Store != nil {
		cr.StoreErr = r.Store.Save(cr.Spec, res)
	}
	var enc []byte
	if err == nil && len(j.at) > 1 {
		enc = res.AppendJSON(nil)
	}
	report(cr)
	for _, i := range j.at[1:] {
		dup := CellResult{Index: i, Spec: cells[i], Err: err}
		if err == nil {
			dup.Result, dup.Err = privateCopy(enc)
			dup.Cached = dup.Err == nil
		}
		report(dup)
	}
}
