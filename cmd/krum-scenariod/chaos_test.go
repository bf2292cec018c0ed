package main

// Chaos coverage: Byzantine INFRASTRUCTURE instead of Byzantine
// workers. A worker is killed while executing a cell and another's
// heartbeats are delayed past the lease; the coordinator must expire
// both, reassign their cells, and still finish the matrix with results
// byte-identical to a direct single-process run — with every cell
// stored exactly once. Runs under -race in CI (the blocking shard
// job and the repo-wide race job).

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"krum/scenario"
	"krum/scenario/store"
)

// chaosLease is short so the test's two expiries cost little wall
// clock. Nothing depends on how it compares with a cell's execution
// time: the murdered worker never reports at all, and the silent one
// holds its finished cell until the coordinator has expired it (see
// runChaos).
const chaosLease = 250 * time.Millisecond

// chaosMatrix is a 6-cell grid of cells long enough that the three
// workers are all busy at once.
func chaosMatrix() scenario.Matrix {
	return scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "mnist(size=8,hidden=12)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=200)",
			N:         9,
			F:         2,
			Rounds:    600,
			BatchSize: 8,
			EvalEvery: 200,
			EvalBatch: 64,
		},
		Seeds: []uint64{1, 2, 3, 4, 5, 6},
	}
}

// waitWorkerBusy polls GET /fleet until the named worker holds an
// assignment.
func waitWorkerBusy(t *testing.T, ts *httptest.Server, workerID string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st fleetStatusJSON
		getJSON(t, ts, "/fleet", &st)
		for _, w := range st.Workers {
			if w.ID == workerID && w.InFlight > 0 {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker %s never received a task", workerID)
}

// waitWorkerGone polls GET /fleet until the named worker's lease has
// expired and it has been removed from the membership.
func waitWorkerGone(t *testing.T, ts *httptest.Server, workerID string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		gone := true
		var st fleetStatusJSON
		getJSON(t, ts, "/fleet", &st)
		for _, w := range st.Workers {
			if w.ID == workerID {
				gone = false
			}
		}
		if gone {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("worker %s was never expired", workerID)
}

// TestChaosWorkerDeathAndDelayedHeartbeat is the issue's chaos
// criterion: kill worker w1 mid-cell and delay w2's heartbeats past
// the lease; the coordinator must reassign their cells, the matrix
// must complete with zero failures, the store must hold every cell
// exactly once, and the final results must be byte-identical to a
// direct scenario.Runner run.
func TestChaosWorkerDeathAndDelayedHeartbeat(t *testing.T) {
	runChaos(t, chaosMatrix())
}

// TestChaosWorkerDeathAndDelayedHeartbeatAsync repeats the chaos
// scenario over asynchronous incremental cells: a reassigned async
// cell replays its arrival trace from the spec seed, so lease expiry
// and requeueing must still reproduce the direct run byte for byte.
// Fewer seeds than the sync variant keep the doubled suite's -race
// runtime bounded.
func TestChaosWorkerDeathAndDelayedHeartbeatAsync(t *testing.T) {
	m := chaosMatrix()
	m.Base.Arrival = "bernoulli(p=0.5,tau=4)"
	m.Base.Incremental = true
	m.Seeds = m.Seeds[:4]
	runChaos(t, m)
}

// runChaos runs the kill-one-delay-one chaos scenario over m and
// asserts completion, exactly-once storage, byte-identity with a
// direct run, and the expired worker's 410 → rejoin recovery.
func runChaos(t *testing.T, m scenario.Matrix) {
	t.Helper()
	direct, err := (&scenario.Runner{Workers: 4}).Run(m)
	if err != nil {
		t.Fatal(err)
	}

	st := store.NewMemory()
	srv := NewServer(4, st, chaosLease)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// workers[0] (fleet id w1) is the murder victim; workers[1] (w2)
	// never heartbeats and sits on its first finished cell — no report,
	// and so no next poll either — until the coordinator has expired it;
	// workers[2] (w3) is healthy.
	w2Expired := make(chan struct{})
	fleet := startWorkers(t, ts, 3, func(i int, w *Worker) {
		if i == 1 {
			w.HeartbeatEvery = time.Hour
			w.beforeReport = func(ctx context.Context) {
				select {
				case <-w2Expired:
				case <-ctx.Done():
				}
			}
		}
	})
	defer fleet.stop()

	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sub := submit(t, ts, string(body))

	// Kill w1 the moment it is executing a cell: its heartbeats stop,
	// its result is never reported, and the in-process goroutine keeps
	// crunching uselessly — exactly what a SIGKILL'd remote process
	// looks like from the coordinator's side.
	waitWorkerBusy(t, ts, "w1")
	fleet.kill(0)

	// The coordinator must expire both the corpse and the silent
	// worker, requeueing their cells onto the survivor. Only then is w2
	// let go: its late report is answered 410 and it rejoins.
	waitWorkerGone(t, ts, "w1")
	waitWorkerGone(t, ts, "w2")
	close(w2Expired)

	status := waitFinished(t, ts, sub.ID)
	if status.Failed != 0 {
		t.Fatalf("chaos run failed %d cells", status.Failed)
	}
	if status.Completed != len(direct) {
		t.Fatalf("completed %d/%d cells", status.Completed, len(direct))
	}

	// No duplicated results: one save and one entry per distinct cell,
	// despite reassignments and the killed worker's abandoned copy.
	stats := st.Stats()
	if stats.Saves != len(direct) || stats.Entries != len(direct) {
		t.Errorf("store holds %d saves / %d entries for %d cells — duplicates or losses",
			stats.Saves, stats.Entries, len(direct))
	}

	var results resultsJSON
	getJSON(t, ts, "/matrices/"+sub.ID+"/results", &results)
	for i, cr := range direct {
		cell := results.Results[i]
		if cell == nil || cell.Result == nil {
			t.Fatalf("cell %d missing after chaos run", i)
		}
		if cell.Error != "" {
			t.Fatalf("cell %d failed: %s", i, cell.Error)
		}
		if encodeResult(t, cell.Result) != encodeResult(t, cr.Result) {
			t.Errorf("cell %d (%s): chaos result differs from direct run", i, cr.Spec.Label())
		}
	}

	// The delayed heartbeater must have rejoined under a fresh identity
	// after discovering its expiry — the 410 → rejoin path.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var fs fleetStatusJSON
		getJSON(t, ts, "/fleet", &fs)
		rejoined := false
		for _, w := range fs.Workers {
			if w.ID != "w1" && w.ID != "w2" && w.ID != "w3" {
				rejoined = true
			}
		}
		if rejoined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the expired worker never rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
