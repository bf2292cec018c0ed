package main

// The in-process multi-tenant load harness (make load-test): hundreds
// of worker slots against a deep multi-tenant backlog of small
// matrices, proving the PR-8 acceptance criteria at scale —
//
//   - fair share: two equal-priority tenants each take ~50% of the
//     dispatches measured over a mid-contention window (final totals
//     are trivially equal once both backlogs drain, so the window is
//     the honest measurement);
//   - strict priority: a high-priority "rush" tenant submitted into
//     the contended backlog finishes while the backlog is still deep;
//   - quota backpressure: a small-quota tenant sees real 429s with
//     Retry-After, retries, and loses nothing;
//   - byte identity: every served result equals a direct in-process
//     scenario.Runner run of the same specs.
//
// Gated behind KRUM_LOAD_TEST=1 because it deliberately saturates the
// machine for tens of seconds; CI runs it in a non-blocking job.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"krum/scenario"
	"krum/scenario/store"
)

// loadMatrix builds one small two-cell matrix (a rules sweep).
func loadMatrix(seed uint64) scenario.Matrix {
	return scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "gmm(k=3,dim=10,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "const(gamma=0.05)",
			N:         9,
			F:         2,
			Rounds:    150,
			BatchSize: 4,
			Seed:      seed,
		},
		Rules: []string{"krum", "average"},
	}
}

// submitTenant marshals a loadMatrix under a tenant envelope and
// returns the raw response.
func submitTenant(t *testing.T, ts *httptest.Server, seed uint64, tenant string, priority int) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(loadMatrix(seed))
	if err != nil {
		t.Fatal(err)
	}
	return postMatrix(t, ts, withTenant(t, string(blob), tenant, priority))
}

// fleetTenantRow finds one tenant's dispatch counters in a fleet
// status snapshot (zero row when the tenant never dispatched).
func fleetTenantRow(fs fleetStatusJSON, tenant string) fleetTenantJSON {
	for _, row := range fs.Tenants {
		if row.Tenant == tenant {
			return row
		}
	}
	return fleetTenantJSON{Tenant: tenant}
}

// startLoadWorkers launches n workers with the given slot count each,
// joined sequentially.
func startLoadWorkers(t *testing.T, base string, n, slots int) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		w := &Worker{
			Coordinator: base,
			Slots:       slots,
		}
		f.workers = append(f.workers, w)
		f.cancels = append(f.cancels, cancel)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return f
}

// TestLoadMultiTenant is the load harness; see the package comment
// above for what it proves.
func TestLoadMultiTenant(t *testing.T) {
	if os.Getenv("KRUM_LOAD_TEST") == "" {
		t.Skip("set KRUM_LOAD_TEST=1 to run the multi-tenant load harness (make load-test)")
	}

	matricesPerTenant := 400
	bigWorkers, bigSlots := 4, 64
	if raceDetectorEnabled {
		matricesPerTenant = 80
		bigWorkers, bigSlots = 2, 16
	}

	st := store.NewMemory()
	srv := NewServerOptions(Options{
		// A pool far wider than the cell count, so every cell reaches
		// the fleet queues instead of waiting on the coordinator's own
		// semaphore — the fleet's scheduling is what this test measures.
		Workers:            4 * matricesPerTenant * 2,
		Store:              st,
		Lease:              5 * time.Second,
		MaxActiveMatrices:  -1, // thousands of live matrices is the point
		TenantPendingCells: map[string]int{"tenant-c": 2},
	})
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A single 1-slot starter worker joins first: enqueue requires live
	// membership, and one slot cannot meaningfully drain the backlog —
	// the contention window survives until the big fleet joins.
	starter := startLoadWorkers(t, ts.URL, 1, 1)
	defer starter.stop()
	waitForFleetSize(t, ts, 1)

	// Build the backlog: two equal-priority tenants, interleaved.
	var idsA, idsB []string
	for i := 0; i < matricesPerTenant; i++ {
		for _, tenant := range []string{"tenant-a", "tenant-b"} {
			seed := uint64(10_000 + i)
			if tenant == "tenant-b" {
				seed += 500_000 // disjoint seeds: no cross-tenant single-flight
			}
			resp, body := submitTenant(t, ts, seed, tenant, 0)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s submit %d: status %d: %s", tenant, i, resp.StatusCode, body)
			}
			var sub submitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatal(err)
			}
			if tenant == "tenant-a" {
				idsA = append(idsA, sub.ID)
			} else {
				idsB = append(idsB, sub.ID)
			}
		}
	}
	cellsPerTenant := 2 * matricesPerTenant

	// Quota tenant: back-to-back 2-cell submissions MUST bounce off the
	// 2-pending-cell quota (the first is always admitted — quotas cap
	// existing backlog); honoring Retry-After must eventually land every
	// one of them.
	var idsC []string
	rejections := 0
	for i := 0; i < 4; i++ {
		for attempt := 0; ; attempt++ {
			resp, body := submitTenant(t, ts, uint64(900_000+i), "tenant-c", 0)
			if resp.StatusCode == http.StatusAccepted {
				var sub submitResponse
				if err := json.Unmarshal(body, &sub); err != nil {
					t.Fatal(err)
				}
				idsC = append(idsC, sub.ID)
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("tenant-c submit %d: status %d: %s", i, resp.StatusCode, body)
			}
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || secs < 1 {
				t.Fatalf("429 without a usable Retry-After: %q", resp.Header.Get("Retry-After"))
			}
			rejections++
			if attempt > 120 {
				t.Fatalf("tenant-c submit %d never admitted after %d retries", i, attempt)
			}
			time.Sleep(time.Duration(secs) * time.Second)
		}
	}
	if rejections == 0 {
		t.Error("tenant-c never saw a 429 — the quota did not bite")
	}

	// Rush tenant: priority 5 into the contended backlog, while the
	// fleet is still just the 1-slot starter. Strict tier precedence
	// must cut the line: the rush matrix finishes while the
	// equal-priority backlog is still deep.
	resp, body := submitTenant(t, ts, 700_001, "rush", 5)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rush submit: status %d: %s", resp.StatusCode, body)
	}
	var rushSub submitResponse
	if err := json.Unmarshal(body, &rushSub); err != nil {
		t.Fatal(err)
	}
	rushStatus := waitFinished(t, ts, rushSub.ID)
	if rushStatus.Failed != 0 {
		t.Fatalf("rush matrix failed %d cells", rushStatus.Failed)
	}
	var fsRush fleetStatusJSON
	getJSON(t, ts, "/fleet", &fsRush)
	backlogDispatched := fleetTenantRow(fsRush, "tenant-a").Dispatches + fleetTenantRow(fsRush, "tenant-b").Dispatches
	if backlogDispatched >= 2*cellsPerTenant {
		t.Error("backlog fully dispatched before the rush matrix finished — priority precedence unobservable (cells too fast for this machine)")
	}

	// The big fleet joins: hundreds of slots. Sample the per-tenant
	// dispatch counters NOW (one atomic snapshot) — the fairness window
	// starts here.
	big := startLoadWorkers(t, ts.URL, bigWorkers, bigSlots)
	defer big.stop()
	waitForFleetSize(t, ts, 1+bigWorkers)
	var fs0 fleetStatusJSON
	getJSON(t, ts, "/fleet", &fs0)
	d0a, d0b := fleetTenantRow(fs0, "tenant-a").Dispatches, fleetTenantRow(fs0, "tenant-b").Dispatches

	// Fairness window: wait until at least 60% of the remaining backlog
	// dispatched, then compare the two tenants' windowed shares.
	windowTarget := (2*cellsPerTenant - d0a - d0b) * 6 / 10
	var wa, wb int
	for deadline := time.Now().Add(5 * time.Minute); ; {
		var fs fleetStatusJSON
		getJSON(t, ts, "/fleet", &fs)
		wa = fleetTenantRow(fs, "tenant-a").Dispatches - d0a
		wb = fleetTenantRow(fs, "tenant-b").Dispatches - d0b
		if wa+wb >= windowTarget {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never reached the fairness window (%d/%d dispatched)", wa+wb, windowTarget)
		}
		time.Sleep(5 * time.Millisecond)
	}
	shareA := float64(wa) / float64(wa+wb)
	if shareA < 0.4 || shareA > 0.6 {
		t.Errorf("windowed fair share: tenant-a %.1f%% (a=%d b=%d), want 50%% ± 10%%", 100*shareA, wa, wb)
	}
	t.Logf("fair-share window: tenant-a %d, tenant-b %d (%.1f%%), rejections %d", wa, wb, 100*shareA, rejections)

	// Drain everything; nothing may be lost or failed.
	allIDs := append(append(append([]string{}, idsA...), idsB...), idsC...)
	for _, id := range allIDs {
		status := waitFinished(t, ts, id)
		if status.Failed != 0 || status.Completed != status.Total {
			t.Fatalf("matrix %s: %d/%d completed, %d failed", id, status.Completed, status.Total, status.Failed)
		}
	}

	// No cell may have fallen back to coordinator-local compute (a live
	// fleet existed throughout), and the fleet must actually have
	// executed the work.
	var fsEnd fleetStatusJSON
	getJSON(t, ts, "/fleet", &fsEnd)
	if fsEnd.LocalFallbacks != 0 {
		t.Errorf("%d cells fell back to local compute under a live fleet", fsEnd.LocalFallbacks)
	}
	executed := 0
	for _, fleet := range []*testFleet{starter, big} {
		for _, w := range fleet.workers {
			executed += w.Executed()
		}
	}
	totalCells := 2*cellsPerTenant + 2*len(idsC) + 2 // a + b + c + rush... (c matrices are 2 cells each too)
	if executed < totalCells {
		t.Errorf("workers executed %d cells, want at least %d (the whole grid)", executed, totalCells)
	}

	t.Logf("workers executed %d cells", executed)

	// Byte identity at scale: a direct in-process Runner over tenant-a's
	// and tenant-b's specs must match the served results exactly.
	for _, id := range append(append([]string{}, idsA[:5]...), idsB[:5]...) {
		var results resultsJSON
		getJSON(t, ts, "/matrices/"+id+"/results", &results)
		specs := make([]scenario.Spec, len(results.Results))
		for i, cell := range results.Results {
			if cell == nil || cell.Result == nil {
				t.Fatalf("matrix %s cell %d missing", id, i)
			}
			specs[i] = cell.Spec
		}
		direct, err := (&scenario.Runner{Workers: runtime.NumCPU()}).RunCells(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cr := range direct {
			if encodeResult(t, results.Results[i].Result) != encodeResult(t, cr.Result) {
				t.Errorf("matrix %s cell %d (%s): served bytes differ from direct run", id, i, cr.Spec.Label())
			}
		}
	}
}
