package main

// Kill-the-coordinator chaos: the issue's acceptance criterion for the
// durability subsystem. A coordinator with a segmented store and a
// checkpoint/journal is killed SIGKILL-style mid-matrix while a live
// 3-worker fleet is executing cells; a second coordinator starts on
// the same address, store directory and journal, replays the journal,
// resumes the matrix under its original id, re-adopts the fleet
// through the 410/rejoin path, and finishes — with zero lost cells and
// both the served results and the persisted store bytes byte-identical
// to a direct single-process scenario.Runner run. Runs under -race in
// the blocking shard-tests CI job.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"krum/scenario"
	"krum/scenario/store"
)

// httpGetJSON is getJSON against a raw base URL (the chaos test cannot
// use httptest.Server — the address must survive the coordinator it
// belongs to).
func httpGetJSON(t *testing.T, base, path string, out any) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
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

// httpSubmit is submit against a raw base URL.
func httpSubmit(t *testing.T, base, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(base+"/matrices", "application/json", strings.NewReader(body))
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

// waitCompletedAt polls a matrix's status at base until at least n
// cells completed, returning the snapshot that crossed the line.
func waitCompletedAt(t *testing.T, base, id string, n int) statusJSON {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st statusJSON
		httpGetJSON(t, base, "/matrices/"+id, &st)
		if st.Completed >= n {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("matrix %s never completed %d cells", id, n)
	return statusJSON{}
}

// waitFinishedAt polls a matrix's status at base until it finishes.
func waitFinishedAt(t *testing.T, base, id string) statusJSON {
	t.Helper()
	deadline := time.Now().Add(300 * time.Second)
	for time.Now().Before(deadline) {
		var st statusJSON
		httpGetJSON(t, base, "/matrices/"+id, &st)
		if st.Finished {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("matrix %s did not finish in time", id)
	return statusJSON{}
}

// waitFleetAt polls GET /fleet at base until the membership reaches n,
// returning the member ids.
func waitFleetAt(t *testing.T, base string, n int) []string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st fleetStatusJSON
		httpGetJSON(t, base, "/fleet", &st)
		if len(st.Workers) >= n {
			ids := make([]string, 0, len(st.Workers))
			for _, w := range st.Workers {
				ids = append(ids, w.ID)
			}
			return ids
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %d workers", n)
	return nil
}

// crashCoordinator is the in-process equivalent of kill -9 for a
// coordinator: the listener dies (workers get connection errors, then
// talk to whoever binds the address next), the journal and store
// handles close WITHOUT the graceful-shutdown checkpoint, and the
// executor goroutines are drained only so the test process does not
// leak them — everything they do after the store closed stays in the
// dead coordinator's memory, exactly like work lost inside a killed
// process. Nothing here persists any state the real SIGKILL would not.
func crashCoordinator(t *testing.T, hs *http.Server, srv *Server, st *store.Store) {
	t.Helper()
	hs.Close()
	srv.mu.Lock()
	srv.stopped = true
	srv.mu.Unlock()
	if srv.journal != nil {
		srv.journal.close() // no final checkpoint — this is the crash
	}
	if err := st.Close(); err != nil {
		t.Fatalf("closing crashed store: %v", err)
	}
	srv.cancel()
	srv.fleet.close()
	srv.wg.Wait()
}

// TestChaosCoordinatorKillMidMatrix kills the coordinator mid-matrix
// under a live 3-worker fleet and proves the durability subsystem
// end to end; see the package comment above.
func TestChaosCoordinatorKillMidMatrix(t *testing.T) {
	m := chaosMatrix()
	direct, err := (&scenario.Runner{Workers: 4}).Run(m)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	storeDir := dir + "/cells"
	journalPath := dir + "/coordinator.journal"
	openStore := func() *store.Store {
		st, err := store.OpenDir(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Coordinator #1 on a real listener: its ADDRESS must outlive it.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	base := "http://" + addr
	st1 := openStore()
	srv1 := NewServer(Options{Workers: 3, Store: st1, Lease: chaosLease})
	if _, err := srv1.UseJournal(journalPath); err != nil {
		t.Fatal(err)
	}
	hs1 := &http.Server{Handler: srv1}
	go hs1.Serve(ln1)

	// A 3-worker fleet joined by URL, so it survives the coordinator.
	workers := startWorkersAt(t, base, 3)
	defer workers.stop()
	waitFleetAt(t, base, 3)

	// Submit under an explicit tenant and priority: recovery must carry
	// the attribution across the crash (it is journaled with the
	// submit event and the checkpoints).
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var envelope map[string]any
	if err := json.Unmarshal(blob, &envelope); err != nil {
		t.Fatal(err)
	}
	envelope["tenant"] = "chaos-tenant"
	envelope["priority"] = 2
	body, err := json.Marshal(envelope)
	if err != nil {
		t.Fatal(err)
	}
	sub := httpSubmit(t, base, string(body))

	// Seal the tail once the first cell is stored, so the crash lands in
	// a store with a sealed segment — recovery replays segments AND a
	// live tail. Then SIGKILL the coordinator once more progress exists
	// but well before the matrix finishes.
	waitCompletedAt(t, base, sub.ID, 1)
	if err := st1.Seal(); err != nil {
		t.Fatal(err)
	}
	progress := waitCompletedAt(t, base, sub.ID, 2)
	if progress.Finished {
		t.Fatalf("matrix finished (%d cells) before the kill — chaos cells are too fast", progress.Completed)
	}
	crashCoordinator(t, hs1, srv1, st1)

	// Coordinator #2: same address, same store, same journal. The bind
	// can race the dying listener's teardown, so retry briefly.
	var ln2 net.Listener
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st2 := openStore()
	defer st2.Close()
	srv2 := NewServer(Options{Workers: 3, Store: st2, Lease: chaosLease})
	resumed, err := srv2.UseJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("recovery resumed %d matrices, want 1", resumed)
	}
	hs2 := &http.Server{Handler: srv2}
	go hs2.Serve(ln2)
	defer hs2.Close()
	defer srv2.Stop()

	// The fleet re-adopts itself: the same worker processes, under
	// FRESH identities (the restored id sequence never re-grants w1-w3).
	ids := waitFleetAt(t, base, 3)
	for _, id := range ids {
		if id == "w1" || id == "w2" || id == "w3" {
			t.Fatalf("re-adopted fleet reuses pre-crash id %s (ids: %v)", id, ids)
		}
	}

	// Zero lost cells: the resurrected matrix — original id — finishes
	// completely, its pre-crash prefix served from the store.
	status := waitFinishedAt(t, base, sub.ID)
	if status.Failed != 0 {
		t.Fatalf("recovered run failed %d cells", status.Failed)
	}
	if status.Tenant != "chaos-tenant" || status.Priority != 2 {
		t.Fatalf("recovery lost tenancy: tenant %q priority %d, want chaos-tenant/2", status.Tenant, status.Priority)
	}
	if status.Completed != len(direct) || status.Total != len(direct) {
		t.Fatalf("recovered run completed %d/%d of %d cells", status.Completed, status.Total, len(direct))
	}
	if status.Cached == 0 {
		t.Error("recovery recomputed everything — the pre-crash prefix was not served from the store")
	}

	// Byte-identity of the SERVED results against the direct
	// single-process run.
	var results resultsJSON
	httpGetJSON(t, base, "/matrices/"+sub.ID+"/results", &results)
	for i, cr := range direct {
		cell := results.Results[i]
		if cell == nil || cell.Result == nil {
			t.Fatalf("cell %d missing after recovery", i)
		}
		if cell.Error != "" {
			t.Fatalf("cell %d failed: %s", i, cell.Error)
		}
		if encodeResult(t, cell.Result) != encodeResult(t, cr.Result) {
			t.Errorf("cell %d (%s): recovered result differs from direct run", i, cr.Spec.Label())
		}
	}

	// The crash must have landed in a store with sealed segments, or
	// this test is not exercising segment replay.
	if st2.Stats().Segments == 0 && st2.Stats().Seals == 0 {
		t.Error("no segments ever sealed before the crash")
	}

	// Byte-identity of the PERSISTED bytes: a completely fresh store
	// handle over the same directory must serve every cell's stable
	// encoding identical to the direct run.
	hs2.Close()
	srv2.Stop()
	st2.Close()
	final := openStore()
	defer final.Close()
	for i, cr := range direct {
		got, ok := final.Lookup(cr.Spec)
		if !ok {
			t.Fatalf("cell %d (%s) missing from the persisted store", i, cr.Spec.Label())
		}
		if encodeResult(t, got) != encodeResult(t, cr.Result) {
			t.Errorf("cell %d (%s): persisted bytes differ from direct run", i, cr.Spec.Label())
		}
	}
	if got := final.Stats().Entries; got < len(direct) {
		t.Errorf("persisted store holds %d entries, want at least %d", got, len(direct))
	}
}

// startWorkersAt is startWorkers against a raw base URL: n single-slot
// workers joined sequentially (ids map to join order).
func startWorkersAt(t *testing.T, base string, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		w := &Worker{
			Coordinator: base,
			Slots:       1,
			Logf:        t.Logf,
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
		waitFleetAt(t, base, i+1)
	}
	return f
}
