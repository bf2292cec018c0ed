package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"krum/distsgd"
	"krum/scenario"
	"krum/scenario/store"
)

// matrixBody renders a small rules-sweep matrix as the POST payload.
func matrixBody(t *testing.T, seed uint64, rules ...string) string {
	t.Helper()
	m := scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
			N:         9,
			F:         2,
			Rounds:    8,
			BatchSize: 8,
			Seed:      seed,
			EvalEvery: 4,
			EvalBatch: 64,
		},
		Rules: rules,
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// submit POSTs a matrix and decodes the accepted response.
func submit(t *testing.T, ts *httptest.Server, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/matrices", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, msg)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// getJSON decodes a GET endpoint into out.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// waitFinished polls a matrix's status until it finishes.
func waitFinished(t *testing.T, ts *httptest.Server, id string) statusJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st statusJSON
		getJSON(t, ts, "/matrices/"+id, &st)
		if st.Finished {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("matrix %s did not finish in time", id)
	return statusJSON{}
}

// encodeResult is the stable-encoding comparison helper; r is a
// *distsgd.Result or a served cell's raw result bytes.
func encodeResult(t *testing.T, r any) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerConcurrentMatricesShareStoreAndPool is the service-level
// acceptance criterion: two matrices submitted concurrently to a
// 2-worker shared pool both complete, and their results are
// byte-identical to direct scenario.Runner runs of the same grids —
// the interleaving across matrices changes nothing.
func TestServerConcurrentMatricesShareStoreAndPool(t *testing.T) {
	st := store.NewMemory()
	srv := NewServer(2, st, 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bodyA := matrixBody(t, 11, "krum", "average")
	bodyB := matrixBody(t, 23, "krum", "coordmedian")
	subA := submit(t, ts, bodyA)
	subB := submit(t, ts, bodyB)
	if subA.ID == subB.ID {
		t.Fatalf("both matrices got id %s", subA.ID)
	}

	stA := waitFinished(t, ts, subA.ID)
	stB := waitFinished(t, ts, subB.ID)
	if stA.Failed != 0 || stB.Failed != 0 {
		t.Fatalf("failed cells: A=%d B=%d", stA.Failed, stB.Failed)
	}
	if stA.Total != 2 || stB.Total != 2 || stA.Completed != 2 || stB.Completed != 2 {
		t.Fatalf("unexpected totals: A=%+v B=%+v", stA, stB)
	}

	// Reference runs of the same grids, directly on the Runner.
	for _, tc := range []struct {
		sub  submitResponse
		body string
	}{{subA, bodyA}, {subB, bodyB}} {
		var m scenario.Matrix
		if err := json.Unmarshal([]byte(tc.body), &m); err != nil {
			t.Fatal(err)
		}
		want, err := (&scenario.Runner{Workers: 1}).Run(m)
		if err != nil {
			t.Fatal(err)
		}
		var got resultsJSON
		getJSON(t, ts, "/matrices/"+tc.sub.ID+"/results", &got)
		if len(got.Results) != len(want) {
			t.Fatalf("matrix %s: %d results, want %d", tc.sub.ID, len(got.Results), len(want))
		}
		for i := range want {
			cell := got.Results[i]
			if cell == nil {
				t.Fatalf("matrix %s: result %d still null after finish", tc.sub.ID, i)
			}
			if cell.Index != i {
				t.Errorf("matrix %s: results[%d].Index = %d; want positional", tc.sub.ID, i, cell.Index)
			}
			if encodeResult(t, cell.Result) != encodeResult(t, want[i].Result) {
				t.Errorf("matrix %s cell %d: service result differs from direct Runner run", tc.sub.ID, i)
			}
		}
	}
}

// TestServerStreamReplaysCompletionOrder reads the NDJSON stream of a
// finished matrix and expects every cell exactly once.
func TestServerStreamReplaysCompletionOrder(t *testing.T) {
	srv := NewServer(2, store.NewMemory(), 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub := submit(t, ts, matrixBody(t, 31, "krum", "average"))
	waitFinished(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + sub.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	seen := map[int]bool{}
	for {
		var c cellJSON
		if err := dec.Decode(&c); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if seen[c.Index] {
			t.Errorf("cell %d streamed twice", c.Index)
		}
		seen[c.Index] = true
	}
	if len(seen) != sub.Cells {
		t.Errorf("streamed %d cells, want %d", len(seen), sub.Cells)
	}
}

// TestServerResumeAfterRestart simulates the crash/resume cycle: run a
// matrix against a file store, "restart" the service on the same file,
// resubmit, and expect every cell to replay as a store hit.
func TestServerResumeAfterRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	st1, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(2, st1, 0)
	ts1 := httptest.NewServer(srv1)
	body := matrixBody(t, 47, "krum", "average")
	sub1 := submit(t, ts1, body)
	first := waitFinished(t, ts1, sub1.ID)
	if first.Cached != 0 {
		t.Fatalf("fresh store served %d cached cells", first.Cached)
	}
	var before resultsJSON
	getJSON(t, ts1, "/matrices/"+sub1.ID+"/results", &before)
	srv1.Stop()
	ts1.Close()
	st1.Close()

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(2, st2, 0)
	defer srv2.Stop()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	sub2 := submit(t, ts2, body)
	second := waitFinished(t, ts2, sub2.ID)
	if second.Cached != second.Total {
		t.Fatalf("resume served %d/%d cells from store; want all", second.Cached, second.Total)
	}
	var after resultsJSON
	getJSON(t, ts2, "/matrices/"+sub2.ID+"/results", &after)
	for i := range before.Results {
		if encodeResult(t, after.Results[i].Result) != encodeResult(t, before.Results[i].Result) {
			t.Errorf("cell %d: resumed result differs from original", i)
		}
	}
}

// TestServerStopAbortsCleanly submits work and stops immediately: the
// server must not deadlock, and each matrix must end either finished
// or aborted with only completed cells recorded.
func TestServerStopAbortsCleanly(t *testing.T) {
	srv := NewServer(1, store.NewMemory(), 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub := submit(t, ts, matrixBody(t, 53, "krum", "average", "coordmedian", "medoid"))
	srv.Stop() // races the executor on purpose; must not race wg.Add

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st statusJSON
		getJSON(t, ts, "/matrices/"+sub.ID, &st)
		if st.Finished || st.Aborted {
			// The two terminal states are mutually exclusive: finished
			// strictly means every cell completed.
			if st.Finished && st.Aborted {
				t.Fatalf("matrix is both finished and aborted: %+v", st)
			}
			if st.Finished && st.Completed != st.Total {
				t.Fatalf("finished with only %d/%d cells completed", st.Completed, st.Total)
			}
			if st.Aborted && st.Completed > st.Total {
				t.Fatalf("aborted with impossible completion %d/%d", st.Completed, st.Total)
			}
			// Submissions after shutdown are refused.
			resp, err := http.Post(ts.URL+"/matrices", "application/json",
				strings.NewReader(matrixBody(t, 1, "krum")))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("post-shutdown submit status %d, want 503", resp.StatusCode)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("matrix never finalized after Stop")
}

// TestServerDeleteEvictsFinishedMatrix pins the retention contract:
// DELETE evicts a terminal matrix from memory while the store keeps
// its cells, and still-running matrices cannot be deleted... the
// resubmission after deletion is served from the store.
func TestServerDeleteEvictsFinishedMatrix(t *testing.T) {
	srv := NewServer(2, store.NewMemory(), 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := matrixBody(t, 71, "krum", "average")
	sub := submit(t, ts, body)
	waitFinished(t, ts, sub.ID)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/matrices/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/matrices/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete %d, want 404", resp.StatusCode)
	}

	// The store survives eviction: resubmitting is fully cached.
	again := waitFinished(t, ts, submit(t, ts, body).ID)
	if again.Cached != again.Total {
		t.Fatalf("resubmission after delete: %d/%d cached", again.Cached, again.Total)
	}
}

// failingSaveStore misses every lookup and fails every save.
type failingSaveStore struct{}

func (failingSaveStore) Lookup(scenario.Spec) (*distsgd.Result, bool) { return nil, false }
func (failingSaveStore) Save(scenario.Spec, *distsgd.Result) error {
	return errDiskFull
}

var errDiskFull = fmt.Errorf("disk full")

// TestServerSurfacesStoreErrors pins that failed write-throughs are
// visible, not silently swallowed: the cells compute fine (failed=0)
// but status reports store_errors and each cell carries store_error —
// the operator's signal that resume-by-resubmission will NOT find
// these cells in the store.
func TestServerSurfacesStoreErrors(t *testing.T) {
	srv := NewServer(2, failingSaveStore{}, 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub := submit(t, ts, matrixBody(t, 83, "krum", "average"))
	st := waitFinished(t, ts, sub.ID)
	if st.Failed != 0 {
		t.Fatalf("failed = %d, want 0 (only persistence failed)", st.Failed)
	}
	if st.StoreErrors != st.Total {
		t.Fatalf("store_errors = %d, want %d", st.StoreErrors, st.Total)
	}
	var got resultsJSON
	getJSON(t, ts, "/matrices/"+sub.ID+"/results", &got)
	for i, cell := range got.Results {
		if cell.Result == nil || cell.Error != "" {
			t.Errorf("cell %d: result missing or marked failed: %+v", i, cell)
		}
		if cell.StoreError == "" {
			t.Errorf("cell %d: store_error not surfaced", i)
		}
	}
}

// TestServerRejectsBadSubmissions pins the validation surface.
func TestServerRejectsBadSubmissions(t *testing.T) {
	srv := NewServer(1, store.NewMemory(), 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for name, body := range map[string]string{
		"not json":     "not json at all",
		"unknown keys": `{"base": {}, "bogus": 1}`,
		"invalid spec": `{"base": {"workload": "gmm", "rule": "nope", "schedule": "const(gamma=0.1)", "n": 4, "f": 1, "rounds": 2, "batch_size": 4, "seed": 1}}`,
	} {
		resp, err := http.Post(ts.URL+"/matrices", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/matrices/m999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	// A small JSON body declaring a huge cartesian product must be
	// rejected before expansion, not OOM the service.
	huge := scenario.Matrix{Base: scenario.Spec{}}
	for i := 0; i < 1000; i++ {
		huge.Seeds = append(huge.Seeds, uint64(i))
	}
	for i := 0; i < 200; i++ {
		huge.Rules = append(huge.Rules, "krum")
	}
	huge.Attacks = []string{"none", "signflip", "gaussian", "mimic", "crash"}
	blob, err := json.Marshal(huge)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/matrices", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized matrix: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "cells") {
		t.Errorf("oversized matrix: message %q does not mention the cell cap", msg)
	}
}

// TestServerRejectsLegacyScreenedField: "screened" was a spec field
// until screened selection was deleted, "parallel" until the distance
// build chose its own goroutine count; a submission still carrying
// either is refused with the unknown-field error instead of silently
// running under a spec the client did not ask for.
func TestServerRejectsLegacyScreenedField(t *testing.T) {
	srv := NewServer(1, store.NewMemory(), 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for field, planted := range map[string]string{"screened": `"screened":true`, "parallel": `"parallel":4`} {
		body := strings.Replace(matrixBody(t, 7, "krum"), `"base":{`, `"base":{`+planted+`,`, 1)
		if !strings.Contains(body, planted) {
			t.Fatalf("could not plant the legacy field in %s", body)
		}
		resp, msg := postMatrix(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", field, resp.StatusCode)
		}
		if !strings.Contains(string(msg), fmt.Sprintf("unknown field %q", field)) {
			t.Errorf("%s: message %q does not name the unknown field", field, msg)
		}
	}
}

// TestServerStoreStats checks the /store endpoint against the expected
// counters after a cold and a warm matrix.
func TestServerStoreStats(t *testing.T) {
	srv := NewServer(2, store.NewMemory(), 0)
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := matrixBody(t, 61, "krum", "average")
	waitFinished(t, ts, submit(t, ts, body).ID)
	warm := waitFinished(t, ts, submit(t, ts, body).ID)
	if warm.Cached != warm.Total {
		t.Fatalf("warm resubmission: %d/%d cached", warm.Cached, warm.Total)
	}

	var stats map[string]int
	getJSON(t, ts, "/store", &stats)
	if stats["entries"] != 2 || stats["hits"] != 2 || stats["misses"] != 2 {
		t.Errorf("store stats = %v, want 2 entries, 2 hits, 2 misses", stats)
	}

	var health map[string]string
	getJSON(t, ts, "/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
	var list []statusJSON
	getJSON(t, ts, "/matrices", &list)
	if len(list) != 2 {
		t.Errorf("listed %d matrices, want 2", len(list))
	}
	if len(list) == 2 && !(list[0].ID == "m1" && list[1].ID == "m2") {
		t.Errorf("list order %v, want [m1 m2]", []string{list[0].ID, list[1].ID})
	}
}
