package scenario

import (
	"bytes"
	"encoding/json"

	"krum/distsgd"
)

// CellExecutor runs one matrix cell and returns its outcome. It is the
// seam that lets a Runner execute cells some other way than the default
// LocalExecutor, which compiles and trains in-process (the repo
// benchmark plugs in an executor that records spans around the same
// steps; the scenariod coordinator does not use this seam — it calls
// RunCellWith with a compute function that dispatches to its fleet).
// Implementations must be safe for concurrent use (Runner calls
// ExecuteCell from multiple goroutines) and must preserve the cell
// purity contract: the returned Result depends only on the Spec, so
// local and remote execution of one cell are byte-identical under
// distsgd.Result's stable JSON encoding.
type CellExecutor interface {
	// ExecuteCell runs cell and returns its CellResult with Index set to
	// index (the position the caller will slot the result into).
	ExecuteCell(index int, cell Spec) CellResult
}

// LocalExecutor is the default CellExecutor: it consults the store,
// compiles the cell and trains it in-process — exactly the path
// RunCell implements. The zero value (nil Store) runs every cell cold.
type LocalExecutor struct {
	// Store, when non-nil, is consulted before computing and written
	// through after (see Runner.Store for the full contract).
	Store ResultStore
}

// ExecuteCell implements CellExecutor via RunCell.
func (e LocalExecutor) ExecuteCell(index int, cell Spec) CellResult {
	return RunCell(e.Store, index, cell)
}

// SingleFlighter is an optional ResultStore extension (implemented by
// scenario/store's Store): DoCell collapses concurrent executions of
// identical cell specs into one compute — when several callers submit
// the same key while no result is stored yet, exactly one runs compute
// and the rest wait for its outcome. RunCellWith routes through it
// automatically, so any Runner or service sharing a single-flight
// store deduplicates in-flight work across goroutines, matrices and
// (via the scenariod coordinator) worker processes.
type SingleFlighter interface {
	// DoCell returns the cell's result, computing it via compute at most
	// once per key across concurrent callers. shared reports that the
	// result arrived without invoking compute in this call (a store hit
	// or another caller's in-flight execution); storeErr is a failed
	// write-through (the result is still valid); runErr is compute's
	// failure, propagated to every waiter.
	DoCell(spec Spec, compute func() (*distsgd.Result, error)) (res *distsgd.Result, shared bool, storeErr, runErr error)
}

// ComputeCell compiles and trains one cell in-process, ignoring any
// store — the miss path of local execution, and the compute function a
// scenariod worker runs for dispatched cells.
func ComputeCell(cell Spec) (*distsgd.Result, error) {
	cfg, err := cell.Compile()
	if err != nil {
		return nil, err
	}
	return distsgd.Run(cfg)
}

// RunCellWith executes one cell through the store protocol with a
// caller-supplied compute function standing in for local training: it
// consults the store, invokes compute on a miss (through the store's
// single-flight when available, so concurrent identical cells collapse
// to one compute) and writes the result through. It is the shared
// machinery between local execution (RunCell) and the scenariod
// coordinator, whose compute dispatches the cell to a worker fleet.
func RunCellWith(st ResultStore, index int, cell Spec, compute func() (*distsgd.Result, error)) CellResult {
	cr := CellResult{Index: index, Spec: cell}
	if sf, ok := st.(SingleFlighter); ok {
		cr.Result, cr.Cached, cr.StoreErr, cr.Err = sf.DoCell(cell, compute)
		return cr
	}
	if st != nil {
		if res, ok := st.Lookup(cell); ok {
			cr.Result = res
			cr.Cached = true
			return cr
		}
	}
	cr.Result, cr.Err = compute()
	if cr.Err == nil && st != nil {
		cr.StoreErr = st.Save(cell, cr.Result)
	}
	return cr
}

// CanonicalResult reports whether raw is a stable-encoded
// distsgd.Result — it must decode AND re-encode to the identical bytes
// — and returns those bytes (raw without surrounding whitespace). That
// is exactly what json.Marshal of a Result produces
// (Marshal∘Unmarshal∘Marshal ≡ Marshal, the serialize.go contract), so
// honest payloads always pass, while arbitrary JSON that would decode
// to a zero-value Result does not. It is the one admission rule for
// result bytes that arrive from outside the process (a fleet worker's
// report, a store record replayed from disk); bytes that passed it can
// be stored and served as they are, with no further decode.
func CanonicalResult(raw json.RawMessage) (json.RawMessage, bool) {
	res := new(distsgd.Result)
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, false
	}
	again, err := json.Marshal(res)
	if err != nil {
		return nil, false
	}
	raw = bytes.TrimSpace(raw)
	return raw, bytes.Equal(raw, again)
}

// RawSingleFlighter is SingleFlighter over canonical result bytes
// (implemented by scenario/store's Store, whose DoCell is a typed
// wrapper over it): the scenariod coordinator moves a result from a
// worker's report to the store and on to its clients without ever
// decoding it.
type RawSingleFlighter interface {
	// DoCellRaw is DoCell with the result as its stable JSON encoding.
	// compute must return canonical bytes (json.Marshal of a
	// distsgd.Result, or bytes that passed CanonicalResult); the
	// returned bytes may be shared with the store and other callers
	// and must not be modified.
	DoCellRaw(spec Spec, compute func() (json.RawMessage, error)) (raw json.RawMessage, shared bool, storeErr, runErr error)
}

// RawCellResult is CellResult with the outcome carried as canonical
// bytes; the fields mean what CellResult's do.
type RawCellResult struct {
	// Index is the cell's position in the expansion order.
	Index int
	// Spec is the cell that ran.
	Spec Spec
	// Result is the stable JSON encoding of the training outcome (nil
	// when Err is set). Read-only: it may be the store's own copy.
	Result json.RawMessage
	// Err is the cell's failure, if any.
	Err error
	// Cached reports that Result was served without invoking compute in
	// this call (see CellResult.Cached).
	Cached bool
	// StoreErr records a failed write-through (see CellResult.StoreErr).
	StoreErr error
}

// RunCellRawWith is RunCellWith for callers that carry results as
// canonical bytes: a RawSingleFlighter store is driven directly, and
// any other ResultStore through a typed adapter at this edge — marshal
// after Lookup, unmarshal before Save — so the caller has one path.
func RunCellRawWith(st ResultStore, index int, cell Spec, compute func() (json.RawMessage, error)) RawCellResult {
	cr := RawCellResult{Index: index, Spec: cell}
	if sf, ok := st.(RawSingleFlighter); ok {
		cr.Result, cr.Cached, cr.StoreErr, cr.Err = sf.DoCellRaw(cell, compute)
		return cr
	}
	if st != nil {
		if res, ok := st.Lookup(cell); ok {
			if raw, err := json.Marshal(res); err == nil {
				cr.Result, cr.Cached = raw, true
				return cr
			}
		}
	}
	cr.Result, cr.Err = compute()
	if cr.Err == nil && st != nil {
		res := new(distsgd.Result)
		if cr.StoreErr = json.Unmarshal(cr.Result, res); cr.StoreErr == nil {
			cr.StoreErr = st.Save(cell, res)
		}
	}
	return cr
}
