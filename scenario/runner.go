package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

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

// Runner executes matrix cells across a bounded goroutine pool. Every
// cell is an independent, explicitly-seeded training run, so results
// are identical whatever the worker count or scheduling — two
// executions of the same matrix agree cell for cell.
type Runner struct {
	// Workers bounds cell-level concurrency; 0 means runtime.NumCPU().
	Workers int
	// OnCell, when non-nil, observes each result as its cell finishes
	// (completion order, not index order). Calls are serialized, so the
	// callback may write to shared state without locking.
	OnCell func(CellResult)
	// Store, when non-nil, is consulted before each cell runs: a hit
	// skips the run entirely (CellResult.Cached), a miss computes the
	// cell and writes the result through. Because cells are pure
	// functions of their Spec, hit results equal computed results; the
	// runner's ordering and determinism guarantees are unchanged by the
	// store. When the store implements SingleFlighter (scenario/store's
	// Store does), two concurrent identical cells collapse to one
	// execution; with a plain store both may miss and both compute —
	// results being identical, the duplicate write is harmless (last
	// write wins).
	Store ResultStore
	// Executor, when non-nil, runs cells in place of the default local
	// path (LocalExecutor{Store: r.Store}) — e.g. the repo benchmark's
	// span-recording executor. A custom Executor owns its own store
	// consultation, so Store is ignored when it is set.
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
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	exec := r.Executor
	if exec == nil {
		exec = LocalExecutor{Store: r.Store}
	}
	results := make([]CellResult, len(cells))
	idx := make(chan int)
	var cbMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cr := exec.ExecuteCell(i, cells[i])
				results[i] = cr
				if r.OnCell != nil {
					cbMu.Lock()
					r.OnCell(cr)
					cbMu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

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

// RunCell executes one cell exactly as Runner does: consult the store
// (st may be nil), on a miss compile and train in-process (collapsing
// concurrent identical cells to one execution when the store
// single-flights), then write the result through. It is the shared
// single-cell path between Runner, the krum-scenariod service's
// cross-matrix pool, and scenariod workers executing dispatched cells.
func RunCell(st ResultStore, index int, cell Spec) CellResult {
	return RunCellWith(st, index, cell, func() (*distsgd.Result, error) {
		return ComputeCell(cell)
	})
}
