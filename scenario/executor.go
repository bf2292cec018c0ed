package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"krum/distsgd"
)

// CellExecutor runs one matrix cell and returns its outcome. It is the
// seam that lets a Runner execute cells some other way than RunCell,
// which compiles and trains in-process (the repo benchmark plugs in an
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
			raw, err := json.Marshal(cr.Result)
			if err != nil {
				// Neither the store nor the waiting callers can be served,
				// but the result exists: the leader keeps it.
				cr.StoreErr = fmt.Errorf("encoding result: %w", err)
				return nil, cr.StoreErr
			}
			return raw, nil
		})
		switch {
		case cr.StoreErr != nil: // the encode failure above
		case err != nil:
			cr.Result, cr.Err = nil, err
		case !shared:
			cr.StoreErr = storeErr
		default:
			cr.Result, cr.Cached = new(distsgd.Result), true
			if err := json.Unmarshal(raw, cr.Result); err != nil {
				cr.Result, cr.Cached, cr.Err = nil, false, fmt.Errorf("decoding shared result: %w", err)
			}
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
	// compute must return canonical bytes (json.Marshal of a
	// distsgd.Result, or bytes that passed CanonicalResult); the
	// returned bytes may be shared with the store and other callers
	// and must not be modified. shared reports that the bytes arrived
	// without invoking compute in this call (a store hit or another
	// caller's in-flight execution); storeErr is a failed write-through
	// (the bytes are still valid); runErr is compute's failure,
	// propagated to every waiter.
	DoCellRaw(spec Spec, compute func() (json.RawMessage, error)) (raw json.RawMessage, shared bool, storeErr, runErr error)
}
