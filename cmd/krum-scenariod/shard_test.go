package main

// End-to-end sharding integration: a coordinator plus in-process
// worker fleets execute examples/matrix-only.json, and the results
// must be byte-identical to a direct scenario.Runner run and across
// topologies — the distributed layer may change WHERE a cell runs,
// never WHAT it produces.

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"krum/internal/vec"
	"krum/scenario"
	"krum/scenario/shardproto"
	"krum/scenario/store"
)

// jsonBody wraps a literal request body.
func jsonBody(s string) io.Reader { return strings.NewReader(s) }

// testFleet is a set of in-process workers attached to a coordinator,
// each on its own context so the chaos test can kill one.
type testFleet struct {
	workers []*Worker
	cancels []context.CancelFunc
	wg      sync.WaitGroup
}

// startWorkers joins n single-slot in-process workers to the
// coordinator at ts, waiting until the coordinator sees them all.
func startWorkers(t *testing.T, ts *httptest.Server, n int, configure func(i int, w *Worker)) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		w := &Worker{
			Coordinator: ts.URL,
			Slots:       1,
			Logf:        t.Logf,
		}
		if configure != nil {
			configure(i, w)
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
		// Join sequentially so coordinator ids w1..wN map to workers[0..N-1]
		// (the chaos test kills a specific one).
		waitForFleetSize(t, ts, i+1)
	}
	return f
}

// kill cancels one worker's context — the in-process equivalent of
// kill -9 for the protocol: heartbeats and polls stop, and any cell it
// is executing finishes silently without ever being reported.
func (f *testFleet) kill(i int) { f.cancels[i]() }

// stop cancels every worker and waits for their loops to exit.
func (f *testFleet) stop() {
	for _, cancel := range f.cancels {
		cancel()
	}
	f.wg.Wait()
}

// waitForFleetSize polls GET /fleet until the membership reaches n.
func waitForFleetSize(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st fleetStatusJSON
		getJSON(t, ts, "/fleet", &st)
		if len(st.Workers) == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %d workers", n)
}

// loadExampleMatrix reads examples/matrix-only.json, reduced to a
// slice of the grid under the race detector (see raceDetectorEnabled).
func loadExampleMatrix(t *testing.T) scenario.Matrix {
	t.Helper()
	blob, err := os.ReadFile("../../examples/matrix-only.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := scenario.ParseMatrixJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if raceDetectorEnabled {
		m.Rules = m.Rules[:1]
		m.Attacks = m.Attacks[:2]
	}
	return m
}

// runTopology executes the matrix on a fresh coordinator + fleet of
// workers × slots (fresh in-memory store, so nothing is served from
// cache) and returns the per-cell stable encodings.
func runTopology(t *testing.T, m scenario.Matrix, workers, slots int) []string {
	t.Helper()
	st := store.NewMemory()
	srv := NewServer(4, st, 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fleet := startWorkers(t, ts, workers, func(_ int, w *Worker) { w.Slots = slots })
	defer fleet.stop()

	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sub := submit(t, ts, string(body))
	status := waitFinished(t, ts, sub.ID)
	if status.Failed != 0 {
		t.Fatalf("%d-worker topology: %d cells failed", workers, status.Failed)
	}
	if status.Completed != len(m.Cells()) {
		t.Fatalf("%d-worker topology: completed %d/%d", workers, status.Completed, len(m.Cells()))
	}

	// Every cell must have executed ON the fleet: the local fallback is
	// for fleetless and dying coordinators, not for healthy topologies.
	executed := 0
	for _, w := range fleet.workers {
		executed += w.Executed()
	}
	if executed < len(m.Cells()) {
		t.Errorf("%d-worker topology: fleet executed %d of %d cells (rest ran locally?)", workers, executed, len(m.Cells()))
	}

	var results resultsJSON
	getJSON(t, ts, "/matrices/"+sub.ID+"/results", &results)
	out := make([]string, len(results.Results))
	for i, cell := range results.Results {
		if cell == nil || cell.Result == nil {
			t.Fatalf("%d-worker topology: cell %d missing", workers, i)
		}
		out[i] = encodeResult(t, cell.Result)
	}
	return out
}

// shardTopologies is the byte-identity table: every fleet shape here
// must reproduce a direct scenario.Runner run byte for byte. Slots = 1
// workers poll with max_tasks 1 and receive batches of one; the
// multi-slot worker receives real batches — the one wire form carries
// both.
var shardTopologies = []struct{ workers, slots int }{
	{workers: 3, slots: 1},
	{workers: 1, slots: 1},
	{workers: 1, slots: 4},
}

// assertTopologiesMatchDirect runs m directly and on every
// shardTopologies fleet and requires identical per-cell bytes.
func assertTopologiesMatchDirect(t *testing.T, m scenario.Matrix) {
	t.Helper()
	direct, err := (&scenario.Runner{Workers: 4}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range shardTopologies {
		got := runTopology(t, m, top.workers, top.slots)
		if len(got) != len(direct) {
			t.Fatalf("%d×%d-slot fleet: %d cells, direct run %d", top.workers, top.slots, len(got), len(direct))
		}
		for i, cr := range direct {
			if got[i] != encodeResult(t, cr.Result) {
				t.Errorf("cell %d (%s): %d×%d-slot fleet result differs from direct run", i, cr.Spec.Label(), top.workers, top.slots)
			}
		}
	}
}

// TestShardEndToEndByteIdentical is the sharding layer's acceptance
// criterion: examples/matrix-only.json run on every shardTopologies
// fleet is byte-identical to a direct scenario.Runner run of the same
// grid.
func TestShardEndToEndByteIdentical(t *testing.T) {
	assertTopologiesMatchDirect(t, loadExampleMatrix(t))
}

// asyncShardMatrix is a compact asynchronous grid: incremental cells
// swept across the arrival axis, quick enough to run three topologies
// back to back under the race detector.
func asyncShardMatrix() scenario.Matrix {
	return scenario.Matrix{
		Base: scenario.Spec{
			Workload:    "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			Attack:      "gaussian(sigma=200)",
			Schedule:    "inverset(gamma=0.5,power=0.75,t0=50)",
			N:           9,
			F:           2,
			Rounds:      30,
			BatchSize:   8,
			Seed:        11,
			EvalEvery:   10,
			EvalBatch:   128,
			Incremental: true,
		},
		Rules:    []string{"krum", "average"},
		Arrivals: []string{"sync", "bounded(tau=2)", "bernoulli(p=0.5,tau=4)"},
	}
}

// TestShardAsyncMatrixByteIdentical extends the byte-identity contract
// to asynchronous cells: an arrivals-swept incremental matrix produces
// identical results on a direct run and on every shardTopologies
// fleet. The arrival trace is a pure function of the cell spec, so
// WHERE an async cell runs still never changes WHAT it produces.
func TestShardAsyncMatrixByteIdentical(t *testing.T) {
	assertTopologiesMatchDirect(t, asyncShardMatrix())
}

// TestShardFleetEndpointsRejectHostileInput pins the coordinator's
// protocol trust boundary at the HTTP layer: malformed fleet messages
// are 400s, unknown identities are 410s.
func TestShardFleetEndpointsRejectHostileInput(t *testing.T) {
	srv := NewServer(1, store.NewMemory(), 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for path, body := range map[string]string{
		"/fleet/join":      `{"slots": -4}`,
		"/fleet/poll":      `{"worker_id": "w1", "token": "t"}`, // no max_tasks
		"/fleet/heartbeat": `not json`,
		"/fleet/result":    `{"worker_id": "w1", "token": "t", "task_id": "t1"}`,
	} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("POST %s with empty body: status %d, want 400", path, resp.StatusCode)
		}
		resp, err = ts.Client().Post(ts.URL+path, "application/json", jsonBody(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("POST %s with %q: status %d, want 400", path, body, resp.StatusCode)
		}
	}

	// A worker built against different result semantics (store.Version
	// salt) must be refused membership: its cells would persist stale
	// results under current-version keys.
	resp0, err := ts.Client().Post(ts.URL+"/fleet/join", "application/json",
		jsonBody(`{"slots": 1, "version": "krum-store-v0-ancient", "kernel": "`+vec.KernelOrder()+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != 409 {
		t.Errorf("mismatched-version join: status %d, want 409", resp0.StatusCode)
	}

	// Same for a worker running a different kernel accumulation-order
	// family: its results could never be bit-reproduced by the
	// coordinator's kernels, so membership is refused with the same 409.
	wrongOrder := "fma4"
	if vec.KernelOrder() == "fma4" {
		wrongOrder = "pair2"
	}
	respK, err := ts.Client().Post(ts.URL+"/fleet/join", "application/json",
		jsonBody(`{"slots": 1, "version": "`+store.Version+`", "kernel": "`+wrongOrder+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	respK.Body.Close()
	if respK.StatusCode != 409 {
		t.Errorf("mismatched-kernel join: status %d, want 409", respK.StatusCode)
	}

	// Valid messages from a never-joined worker: 410 Gone (rejoin).
	for path, body := range map[string]string{
		"/fleet/poll":      `{"worker_id": "w999", "token": "deadbeef", "max_tasks": 1}`,
		"/fleet/heartbeat": `{"worker_id": "w999", "token": "deadbeef"}`,
	} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", jsonBody(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 410 {
			t.Errorf("POST %s as unknown worker: status %d, want 410", path, resp.StatusCode)
		}
	}

	// A LIVE worker id with the wrong token is just as unknown: join
	// properly, then impersonate with a guessed token.
	grant := joinFleet(t, ts)
	resp, err := ts.Client().Post(ts.URL+"/fleet/poll", "application/json",
		jsonBody(`{"worker_id": "`+grant.WorkerID+`", "token": "deadbeef", "max_tasks": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 410 {
		t.Errorf("poll with forged token: status %d, want 410", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/fleet/poll", "application/json",
		jsonBody(`{"worker_id": "`+grant.WorkerID+`", "token": "`+grant.Token+`", "max_tasks": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("poll with real token: status %d, want 200", resp.StatusCode)
	}

	// A result for a never-assigned task is acknowledged but rejected.
	resp, err = ts.Client().Post(ts.URL+"/fleet/result", "application/json",
		jsonBody(`{"worker_id": "`+grant.WorkerID+`", "token": "`+grant.Token+`", "task_id": "t999", "error": "x"}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Accepted bool `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || ack.Accepted {
		t.Errorf("stale result: status %d accepted %v, want 200 + rejected", resp.StatusCode, ack.Accepted)
	}
}

// joinFleet performs a raw HTTP join and returns the grant.
func joinFleet(t *testing.T, ts *httptest.Server) shardproto.JoinResponse {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/fleet/join", "application/json",
		jsonBody(`{"slots": 1, "version": "`+store.Version+`", "kernel": "`+vec.KernelOrder()+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("join: status %d", resp.StatusCode)
	}
	var grant shardproto.JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	return grant
}

// TestShardRejectsGarbageResultPayload pins the canonical-bytes check:
// a structurally-valid-JSON but non-canonical result payload for a
// genuinely-assigned task is rejected and the task is requeued, so the
// store can never be poisoned by a worker that decodes to a zero
// Result.
func TestShardRejectsGarbageResultPayload(t *testing.T) {
	st := store.NewMemory()
	// A short lease so the test's hand-rolled worker, which stops
	// polling after its one garbage report, expires quickly and the
	// requeued task falls back to local execution.
	srv := NewServer(2, st, 500*time.Millisecond)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	grant := joinFleet(t, ts)
	// Submit a one-cell matrix so a task gets assigned to our raw
	// "worker" on its next poll.
	sub := submit(t, ts, matrixBody(t, 97, "krum"))
	task := manualWorker{t, ts, grant}.poll()

	// Report garbage that IS valid JSON but not a canonical Result.
	resp, err := ts.Client().Post(ts.URL+"/fleet/result", "application/json",
		jsonBody(`{"worker_id": "`+grant.WorkerID+`", "token": "`+grant.Token+`", "task_id": "`+task.ID+`", "result": {"garbage": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack shardproto.ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted {
		t.Fatal("garbage result payload was accepted")
	}

	// The task must be requeued, not wedged: stop polling (our fake
	// worker "dies"), so after lease expiry the coordinator falls back
	// to local execution and the matrix still completes correctly.
	status := waitFinished(t, ts, sub.ID)
	if status.Failed != 0 {
		t.Fatalf("matrix failed %d cells after garbage report", status.Failed)
	}
	var results resultsJSON
	getJSON(t, ts, "/matrices/"+sub.ID+"/results", &results)
	want, err := (&scenario.Runner{Workers: 1}).RunCells([]scenario.Spec{results.Results[0].Spec})
	if err != nil {
		t.Fatal(err)
	}
	if encodeResult(t, results.Results[0].Result) != encodeResult(t, want[0].Result) {
		t.Fatal("cell result differs from a direct run after the garbage report")
	}
}
