package store_test

// Single-flight coverage, including the committed acceptance-criterion
// property test: N goroutines submitting one cell concurrently execute
// it exactly once (witnessed by the distance builds their results
// report summing to a single isolated execution's) and every caller
// gets byte-identical results.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krum/distsgd"
	"krum/scenario"
	"krum/scenario/store"
)

// writeFile is a tiny fixture helper.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// flightSpec is a small keyable cell whose krum rule builds distance
// matrices every round — the execution witness.
func flightSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
		Rule:      "krum",
		Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
		N:         9,
		F:         2,
		Rounds:    10,
		BatchSize: 8,
		Seed:      seed,
	}
}

// TestSingleFlightConcurrentIdenticalCells is the property test: N
// concurrent submissions of one cell → exactly one execution,
// identical bytes for every caller.
func TestSingleFlightConcurrentIdenticalCells(t *testing.T) {
	t.Parallel()
	spec := flightSpec(31)

	// Reference: the build cost of exactly one execution, in isolation.
	compute := func() (*distsgd.Result, error) { return scenario.ComputeCell(spec) }
	ref := scenario.RunCellWith(store.NewMemory(), 0, spec, compute)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	perExecution := ref.Result.Stats.Builds
	if perExecution == 0 {
		t.Fatal("reference execution built no distance matrices; the property below would be vacuous")
	}
	refBytes, err := json.Marshal(ref.Result)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	st := store.NewMemory()
	results := make([]scenario.CellResult, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = scenario.RunCellWith(st, i, spec, compute)
		}(i)
	}
	close(start)
	wg.Wait()

	leaders := 0
	var builds uint64
	for i, cr := range results {
		if cr.Err != nil {
			t.Fatalf("caller %d: %v", i, cr.Err)
		}
		builds += cr.Result.Stats.Builds
		if !cr.Cached {
			leaders++
		}
		got, err := json.Marshal(cr.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(refBytes) {
			t.Errorf("caller %d: bytes differ from the isolated execution", i)
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers report Cached=false, want exactly the one leader", leaders)
	}
	if builds != perExecution {
		t.Errorf("%d concurrent submissions built %d matrices, want the single-execution cost %d", n, builds, perExecution)
	}

	stats := st.Stats()
	if stats.Saves != 1 || stats.Entries != 1 {
		t.Errorf("store holds %d saves / %d entries, want exactly 1 (no duplicated results)", stats.Saves, stats.Entries)
	}
	if stats.Misses != 1 {
		t.Errorf("store counted %d misses, want 1 (the leader)", stats.Misses)
	}
	if stats.Hits+stats.FlightWaits != n-1 {
		t.Errorf("hits (%d) + flight waits (%d) = %d, want the %d followers",
			stats.Hits, stats.FlightWaits, stats.Hits+stats.FlightWaits, n-1)
	}
}

// TestSingleFlightSharesComputeWithWaiters drives the single-flight
// through RunCellWith with an instrumented compute: followers that
// arrive while the leader is computing wait and share its bytes, and
// compute runs once.
func TestSingleFlightSharesComputeWithWaiters(t *testing.T) {
	st := store.NewMemory()
	spec := flightSpec(5)
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	result := &distsgd.Result{FinalTestAccuracy: 0.75, FinalTestLoss: 0.5}

	compute := func() (*distsgd.Result, error) {
		calls.Add(1)
		close(entered)
		<-release
		return result, nil
	}

	leaderDone := make(chan scenario.CellResult, 1)
	go func() {
		leaderDone <- scenario.RunCellWith(st, 0, spec, compute)
	}()
	<-entered // the leader is inside compute; followers must now wait

	const followers = 4
	var wg sync.WaitGroup
	followerResults := make([]scenario.CellResult, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			followerResults[i] = scenario.RunCellWith(st, i+1, spec, func() (*distsgd.Result, error) {
				t.Error("a follower invoked compute")
				return nil, errors.New("unreachable")
			})
		}(i)
	}
	// Give the followers time to reach the flight table before the
	// leader finishes (correctness does not depend on this — a late
	// follower would hit the index instead — but waiting makes the
	// FlightWaits assertion meaningful).
	for st.Stats().FlightWaits < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	leader := <-leaderDone
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if leader.Err != nil || leader.Cached {
		t.Fatalf("leader: err=%v cached=%v", leader.Err, leader.Cached)
	}
	want, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range followerResults {
		if cr.Err != nil || !cr.Cached {
			t.Fatalf("follower %d: err=%v cached=%v", i, cr.Err, cr.Cached)
		}
		got, err := json.Marshal(cr.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("follower %d: bytes differ from the leader's result", i)
		}
	}
	if st.Stats().FlightWaits != followers {
		t.Errorf("flight waits = %d, want %d", st.Stats().FlightWaits, followers)
	}
}

// TestSingleFlightErrorsPropagateUncached pins the failure contract:
// every waiter receives the leader's error, nothing is stored, and the
// next submission re-executes.
func TestSingleFlightErrorsPropagateUncached(t *testing.T) {
	st := store.NewMemory()
	spec := flightSpec(7)
	boom := errors.New("transient compute failure")
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan scenario.CellResult, 1)
	go func() {
		leaderDone <- scenario.RunCellWith(st, 0, spec, func() (*distsgd.Result, error) {
			calls.Add(1)
			close(entered)
			<-release
			return nil, boom
		})
	}()
	<-entered
	followerDone := make(chan scenario.CellResult, 1)
	go func() {
		followerDone <- scenario.RunCellWith(st, 1, spec, func() (*distsgd.Result, error) {
			t.Error("the follower must wait on the leader, not compute")
			return nil, errors.New("unreachable")
		})
	}()
	for st.Stats().FlightWaits < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	leader := <-leaderDone
	follower := <-followerDone

	if !errors.Is(leader.Err, boom) || !errors.Is(follower.Err, boom) {
		t.Fatalf("leader err %v, follower err %v; want the compute failure in both", leader.Err, follower.Err)
	}
	if st.Stats().Saves != 0 || st.Stats().Entries != 0 {
		t.Fatal("a failed execution was stored")
	}

	// The failure was not cached: a later submission re-executes.
	retry := scenario.RunCellWith(st, 2, spec, func() (*distsgd.Result, error) {
		calls.Add(1)
		return &distsgd.Result{FinalTestAccuracy: 1}, nil
	})
	if retry.Err != nil || calls.Load() != 2 {
		t.Fatalf("retry err=%v calls=%d, want a fresh execution", retry.Err, calls.Load())
	}
}

// TestSingleFlightHealsCorruptIndexEntry pins the self-repair path: a
// stored record whose key re-derives (so it loads) but whose result
// bytes no longer decode is treated as a miss, recomputed, AND
// overwritten — the corruption costs one recompute, not one per run
// forever.
func TestSingleFlightHealsCorruptIndexEntry(t *testing.T) {
	spec := flightSpec(13)
	c, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := store.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-craft a record with a valid key/spec but an undecodable
	// result (the key does not cover the result bytes, so it loads).
	line, err := json.Marshal(map[string]any{
		"key":     key,
		"version": store.Version,
		"spec":    c,
		"result":  json.RawMessage(`{"final_params_b64": "%%%not-base64%%%"}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeFile(dir+"/tail.jsonl", append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Stats().Entries != 1 {
		t.Fatalf("fixture drifted: %d entries loaded", st.Stats().Entries)
	}

	var calls atomic.Int64
	healed := &distsgd.Result{FinalTestAccuracy: 0.9}
	first := scenario.RunCellWith(st, 0, spec, func() (*distsgd.Result, error) {
		calls.Add(1)
		return healed, nil
	})
	if first.Err != nil || first.StoreErr != nil || first.Cached || calls.Load() != 1 {
		t.Fatalf("corrupt entry: err=%v storeErr=%v cached=%v calls=%d; want one clean recompute",
			first.Err, first.StoreErr, first.Cached, calls.Load())
	}
	// The repaired entry now serves without recomputation.
	second := scenario.RunCellWith(st, 1, spec, func() (*distsgd.Result, error) {
		calls.Add(1)
		return nil, errors.New("must not recompute after healing")
	})
	if second.Err != nil || !second.Cached || calls.Load() != 1 {
		t.Fatalf("after healing: err=%v cached=%v calls=%d", second.Err, second.Cached, calls.Load())
	}
	want, _ := json.Marshal(healed)
	got, _ := json.Marshal(second.Result)
	if string(got) != string(want) {
		t.Error("healed entry serves different bytes")
	}
}

// TestSingleFlightStoreErrorOnlyAtLeader pins that a failed
// write-through surfaces as the leader's StoreErr while followers (who
// hold valid bytes) see none.
func TestSingleFlightStoreErrorOnlyAtLeader(t *testing.T) {
	// An unkeyable spec cannot be persisted or deduplicated: the cell
	// still computes, and the key failure lands in StoreErr.
	bad := flightSpec(9)
	bad.Rule = "no-such-rule"
	cr := scenario.RunCellWith(store.NewMemory(), 0, bad, func() (*distsgd.Result, error) {
		return &distsgd.Result{}, nil
	})
	if cr.Err != nil {
		t.Fatalf("cell err = %v, want success (only persistence can fail)", cr.Err)
	}
	if cr.StoreErr == nil {
		t.Fatal("unkeyable spec produced no StoreErr")
	}
	if cr.Cached {
		t.Fatal("unkeyable spec cannot be served from the store")
	}

	// A failing compute on an unkeyable spec reports the compute error,
	// not a store error.
	fail := scenario.RunCellWith(store.NewMemory(), 0, bad, func() (*distsgd.Result, error) {
		return nil, fmt.Errorf("boom")
	})
	if fail.Err == nil || fail.StoreErr != nil {
		t.Fatalf("err=%v storeErr=%v; want compute error only", fail.Err, fail.StoreErr)
	}
}
