package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"krum/distsgd"
)

// CellExecutor runs one matrix cell and returns its outcome. It is the
// seam that lets a Runner execute cells one at a time some other way
// than its in-process cohorts (the repo benchmark plugs in an
// executor that records spans around the same steps; the scenariod
// coordinator does not use this seam — it drives the store's DoCellRaw
// with a compute function that dispatches to its fleet).
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
// consults the store, invokes compute on a miss and writes the result
// through. When the store is a RawSingleFlighter (scenario/store's
// Store is), concurrent identical cells collapse to one compute: the
// caller that computes encodes its result once, for the store and the
// waiting callers, and keeps its own *Result (Stats included); every
// other caller decodes the shared bytes into a private one.
func RunCellWith(st ResultStore, index int, cell Spec, compute func() (*distsgd.Result, error)) CellResult {
	cr := CellResult{Index: index, Spec: cell}
	if sf, ok := st.(RawSingleFlighter); ok {
		raw, shared, storeErr, err := sf.DoCellRaw(cell, func() (json.RawMessage, error) {
			var err error
			if cr.Result, err = compute(); err != nil {
				return nil, err
			}
			return cr.Result.AppendJSON(nil), nil
		})
		switch {
		case err != nil:
			cr.Result, cr.Err = nil, err
		case !shared:
			cr.StoreErr = storeErr
		default:
			cr.Result, cr.Err = privateCopy(raw)
			cr.Cached = cr.Err == nil
		}
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

// privateCopy decodes a result's shared stable bytes into a Result of
// the caller's own.
func privateCopy(raw []byte) (*distsgd.Result, error) {
	res := new(distsgd.Result)
	if err := res.UnmarshalJSON(raw); err != nil {
		return nil, fmt.Errorf("decoding shared result: %w", err)
	}
	return res, nil
}

// CanonicalResult reports whether raw is a stable-encoded
// distsgd.Result — it must parse (distsgd.Result.UnmarshalJSON's
// strict grammar) AND re-encode to the identical bytes — and returns
// those bytes (raw without surrounding JSON whitespace). That is
// exactly what AppendJSON of a Result produces, so honest payloads
// always pass, while any other spelling of the same values (a
// reordered field, a longer number, an escape the encoder would not
// write) does not. It is the one admission rule for result bytes that
// arrive from outside the process (a fleet worker's report, a store
// record replayed from disk); bytes that passed it can be stored and
// served as they are, with no further decode.
func CanonicalResult(raw json.RawMessage) (json.RawMessage, bool) {
	raw = bytes.Trim(raw, " \t\r\n")
	var res distsgd.Result
	if res.UnmarshalJSON(raw) != nil {
		return nil, false
	}
	return raw, bytes.Equal(raw, res.AppendJSON(make([]byte, 0, len(raw))))
}

// RawSingleFlighter is an optional ResultStore extension (implemented
// by scenario/store's Store) over canonical result bytes: DoCellRaw
// collapses concurrent executions of identical cell specs into one
// compute — when several callers submit the same key while no result
// is stored yet, exactly one runs compute and the rest wait for its
// bytes. RunCellWith drives it for in-process runners; the scenariod
// coordinator drives it directly, moving a result from a worker's
// report to the store and on to its clients without ever decoding it.
type RawSingleFlighter interface {
	// DoCellRaw returns the cell's stable JSON encoding, computing it
	// via compute at most once per key across concurrent callers.
	// compute must return canonical bytes (AppendJSON of a
	// distsgd.Result, or bytes that passed CanonicalResult); the
	// returned bytes may be shared with the store and other callers
	// and must not be modified. shared reports that the bytes arrived
	// without invoking compute in this call (a store hit or another
	// caller's in-flight execution); storeErr is a failed write-through
	// (the bytes are still valid); runErr is compute's failure,
	// propagated to every waiter.
	DoCellRaw(spec Spec, compute func() (json.RawMessage, error)) (raw json.RawMessage, shared bool, storeErr, runErr error)
}
