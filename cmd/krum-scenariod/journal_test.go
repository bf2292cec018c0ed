package main

// Journal coverage: replay rules (checkpoint replacement, done
// removal, unknown-matrix and malformed-line skipping, torn final
// line, the per-cell lines of older journals read past), the
// checkpoint rewrite, two appends per matrix however many cells it
// has, and server-level resume — a journaled matrix resurrects under
// its original id on a fresh server and finishes with results
// byte-identical to a direct run, and a graceful Stop leaves a zero-lag
// checkpoint that preserves the id sequences.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"krum/scenario"
	"krum/scenario/store"
)

// journalLine renders one event as a journal line.
func journalLine(t *testing.T, ev journalEvent) string {
	t.Helper()
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// testCells expands matrixBody's grid into specs.
func testCells(t *testing.T, seed uint64, rules ...string) []scenario.Spec {
	t.Helper()
	m, err := scenario.ParseMatrixJSON([]byte(matrixBody(t, seed, rules...)))
	if err != nil {
		t.Fatal(err)
	}
	return m.Cells()
}

// TestJournalReplayRules pins the replay semantics line by line:
// events apply in order, a checkpoint replaces everything before it,
// done removes a matrix, unknown references and malformed interior
// lines are skipped-and-counted, an older journal's "cell" lines are
// neither applied nor counted, and a torn final line is forgiven.
func TestJournalReplayRules(t *testing.T) {
	cells := testCells(t, 1, "krum")
	var sb strings.Builder
	// Pre-checkpoint garbage that the checkpoint must erase.
	sb.WriteString(journalLine(t, journalEvent{Type: "submit", Matrix: "m1", Cells: cells}))
	sb.WriteString(journalLine(t, journalEvent{Type: "checkpoint", Checkpoint: &checkpoint{
		Seq: 4, Wseq: 7,
		Matrices: []checkpointMatrix{{ID: "m3", Cells: cells}},
	}}))
	sb.WriteString(`{"type":"cell","matrix":"m3"}` + "\n")
	sb.WriteString(`{"type":"cell","matrix":"m99","index":4,"cached":true}` + "\n") // no such matrix; still just read past
	sb.WriteString("{not json}\n")                                                  // malformed interior
	sb.WriteString(journalLine(t, journalEvent{Type: "submit", Matrix: "m5", Cells: cells}))
	sb.WriteString(journalLine(t, journalEvent{Type: "done", Matrix: "m3"}))
	sb.WriteString(journalLine(t, journalEvent{Type: "done", Matrix: "m98"})) // unknown matrix
	sb.WriteString(journalLine(t, journalEvent{Type: "join", Worker: "w9"}))
	sb.WriteString(`{"type":"cell","matrix":"m5","ind`) // torn final append

	state := &journalState{}
	replayJournal([]byte(sb.String()), state)
	if state.seq != 5 {
		t.Errorf("seq = %d, want 5 (checkpoint's 4 advanced by m5)", state.seq)
	}
	if state.wseq != 9 {
		t.Errorf("wseq = %d, want 9", state.wseq)
	}
	if len(state.matrices) != 1 || state.matrices[0].ID != "m5" {
		t.Fatalf("live matrices = %+v, want just m5 (m3 is done, m1 pre-checkpoint)", state.matrices)
	}
	if len(state.matrices[0].Cells) != len(cells) {
		t.Errorf("m5 carries %d cells, want %d", len(state.matrices[0].Cells), len(cells))
	}
	// Skipped: the unknown-matrix done and the malformed interior line;
	// NOT the cell lines and NOT the torn final line.
	if state.skipped != 2 {
		t.Errorf("skipped = %d, want 2", state.skipped)
	}
	// Lag since the checkpoint: submit(m5), done(m3), join.
	if state.events != 3 {
		t.Errorf("events since checkpoint = %d, want 3", state.events)
	}
}

// TestJournalCheckpointRewrite pins the rewrite mechanics: after a
// rewrite the file holds exactly one checkpoint line, lag is zero,
// and appends land after it and replay on top of it.
func TestJournalCheckpointRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coordinator.journal")
	cells := testCells(t, 1, "krum")
	j, state, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if state.events != 0 || len(state.matrices) != 0 {
		t.Fatalf("fresh journal replayed state %+v", state)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.append(journalEvent{Type: "join", Worker: "w1"}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Lag() != 3 {
		t.Fatalf("lag = %d, want 3", j.Lag())
	}
	cp := checkpoint{Seq: 2, Wseq: 1, Matrices: []checkpointMatrix{{ID: "m2", Cells: cells}}}
	if err := j.rewrite(func() checkpoint { return cp }); err != nil {
		t.Fatal(err)
	}
	if j.Lag() != 0 {
		t.Errorf("lag after rewrite = %d, want 0", j.Lag())
	}
	if _, err := j.append(journalEvent{Type: "join", Worker: "w2"}); err != nil {
		t.Fatal(err)
	}
	j.close()

	j2, state2, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if state2.seq != 2 || state2.wseq != 2 {
		t.Errorf("sequences = (%d, %d), want (2, 2): the checkpoint's, advanced by the appended join", state2.seq, state2.wseq)
	}
	if len(state2.matrices) != 1 || state2.matrices[0].ID != "m2" {
		t.Fatalf("live matrices = %+v, want just m2", state2.matrices)
	}
	if state2.events != 1 {
		t.Errorf("replayed lag = %d, want 1 (one append after the checkpoint)", state2.events)
	}
}

// parentJournal is a journal in the byte format the binary wrote while
// it still journaled per-cell progress, line shapes copied from a real
// run killed mid-matrix (grids cut down): a checkpoint whose live matrix
// carries a "done" index array, per-cell lines after it in all three
// shapes that binary produced (index 0 omitted, cached, failed), a
// second submit with its own cell lines, a join, and the append the
// kill tore.
const parentJournal = `{"type":"checkpoint","checkpoint":{"seq":1,"wseq":2,"matrices":[{"id":"m1","cells":[{"name":"gmm(k=3,dim=4,radius=4,sigma=0.5) rule=krum attack=none f=1 seed=1","workload":"gmm(k=3,dim=4,radius=4,sigma=0.5)","rule":"krum","schedule":"const(gamma=0.05)","n":5,"f":1,"rounds":4,"batch_size":4,"seed":1},{"name":"gmm(k=3,dim=4,radius=4,sigma=0.5) rule=average attack=none f=1 seed=1","workload":"gmm(k=3,dim=4,radius=4,sigma=0.5)","rule":"average","schedule":"const(gamma=0.05)","n":5,"f":1,"rounds":4,"batch_size":4,"seed":1}],"tenant":"default","done":[1]}]}}
{"type":"cell","matrix":"m1"}
{"type":"submit","matrix":"m2","cells":[{"name":"gmm(k=3,dim=4,radius=4,sigma=0.5) rule=krum attack=none f=1 seed=2","workload":"gmm(k=3,dim=4,radius=4,sigma=0.5)","rule":"krum","schedule":"const(gamma=0.05)","n":5,"f":1,"rounds":4,"batch_size":4,"seed":2}],"tenant":"alice","priority":2}
{"type":"cell","matrix":"m2","cached":true}
{"type":"join","worker":"w3"}
{"type":"cell","matrix":"m1","index":1,"cell_error":"boom"}
{"type":"cell","matrix":"m1","ind`

// TestJournalParentFormatReplays pins that a journal written before
// per-cell progress was dropped still replays: the same live matrices
// (cells, tenant, priority), the same sequences, and nothing counted as
// damage — the cell lines and the checkpoint's "done" array are read
// past, not rejected.
func TestJournalParentFormatReplays(t *testing.T) {
	state := &journalState{}
	replayJournal([]byte(parentJournal), state)
	if state.skipped != 0 {
		t.Errorf("skipped = %d, want 0: older-format lines are not damage", state.skipped)
	}
	if state.seq != 2 || state.wseq != 3 {
		t.Errorf("sequences = (%d, %d), want (2, 3)", state.seq, state.wseq)
	}
	if len(state.matrices) != 2 {
		t.Fatalf("live matrices = %+v, want m1 and m2", state.matrices)
	}
	m1, m2 := state.matrices[0], state.matrices[1]
	if m1.ID != "m1" || len(m1.Cells) != 2 || m1.Tenant != "default" || m1.Priority != 0 {
		t.Errorf("m1 = %+v, want 2 cells under tenant default at priority 0", m1)
	}
	if m2.ID != "m2" || len(m2.Cells) != 1 || m2.Tenant != "alice" || m2.Priority != 2 {
		t.Errorf("m2 = %+v, want 1 cell under tenant alice at priority 2", m2)
	}
	if m1.Cells[1].Rule != "average" || m2.Cells[0].Seed != 2 {
		t.Errorf("cell specs did not survive: m1[1] = %+v, m2[0] = %+v", m1.Cells[1], m2.Cells[0])
	}

	// And it resumes: both matrices run to completion on a fresh server.
	path := filepath.Join(t.TempDir(), "coordinator.journal")
	if err := os.WriteFile(path, []byte(parentJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(2, store.NewMemory(), 0)
	defer srv.Stop()
	resumed, err := srv.UseJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 2 {
		t.Fatalf("resumed %d matrices, want 2", resumed)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for id, total := range map[string]int{"m1": 2, "m2": 1} {
		if status := waitFinished(t, ts, id); status.Failed != 0 || status.Total != total {
			t.Errorf("resumed %s: %+v", id, status)
		}
	}
}

// TestJournalTwoEventsPerMatrix pins the journal's cost model: a matrix
// run to completion appends one submit and one done line whatever its
// cell count — no per-cell line — so with the automatic checkpoint out
// of reach the lag is exactly 2.
func TestJournalTwoEventsPerMatrix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coordinator.journal")
	srv := NewServer(2, store.NewMemory(), 0)
	defer srv.Stop()
	if _, err := srv.UseJournal(path); err != nil {
		t.Fatal(err)
	}
	srv.journal.every = 1 << 30
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rules := []string{"krum", "average", "coordmedian", "multikrum(m=3)", "trimmedmean", "geomedian"}
	sub := submit(t, ts, matrixBody(t, 5, rules...))
	if status := waitFinished(t, ts, sub.ID); status.Completed != len(rules) || status.Failed != 0 {
		t.Fatalf("matrix: %+v, want %d cells completed", status, len(rules))
	}
	// The done event follows the finished flag; give it a moment.
	for deadline := time.Now().Add(5 * time.Second); srv.journal.Lag() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if lag := srv.journal.Lag(); lag != 2 {
		t.Errorf("lag = %d after one %d-cell matrix, want 2 (submit + done)", lag, len(rules))
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range bytes.Split(bytes.TrimSpace(blob), []byte("\n")) {
		var ev journalEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		types = append(types, ev.Type)
	}
	if got := strings.Join(types, " "); got != "checkpoint submit done" {
		t.Errorf("journal lines = %q, want \"checkpoint submit done\"", got)
	}
}

// TestJournalServerResume is the recovery half at the server level
// (no fleet): a journal holding a live matrix resurrects it on
// UseJournal under its original id, the matrix finishes with results
// byte-identical to a direct run, /healthz reports the journal lag,
// and a graceful Stop leaves a zero-lag checkpoint preserving the id
// sequence for the next incarnation.
func TestJournalServerResume(t *testing.T) {
	cells := testCells(t, 3, "krum", "average")
	direct, err := (&scenario.Runner{Workers: 2}).RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}

	// A "crashed coordinator's" journal: matrix m2 was live and worker
	// id w3 had been granted.
	path := filepath.Join(t.TempDir(), "coordinator.journal")
	blob := journalLine(t, journalEvent{Type: "submit", Matrix: "m2", Cells: cells}) +
		journalLine(t, journalEvent{Type: "join", Worker: "w3"})
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(2, store.NewMemory(), 0)
	resumed, err := srv.UseJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d matrices, want 1", resumed)
	}
	ts := httptest.NewServer(srv)
	status := waitFinished(t, ts, "m2")
	if status.Failed != 0 || status.Total != len(cells) {
		t.Fatalf("resumed matrix: %+v", status)
	}
	var results resultsJSON
	getJSON(t, ts, "/matrices/m2/results", &results)
	for i, cr := range direct {
		cell := results.Results[i]
		if cell == nil || cell.Result == nil || cell.Error != "" {
			t.Fatalf("resumed cell %d missing or failed: %+v", i, cell)
		}
		if encodeResult(t, cell.Result) != encodeResult(t, cr.Result) {
			t.Errorf("resumed cell %d differs from the direct run", i)
		}
	}

	// The journal is live: healthz must report a lag (the finished
	// matrix appended its done event after the initial checkpoint).
	var health healthJSON
	getJSON(t, ts, "/healthz", &health)
	if health.Status != "ok" || health.JournalLag == nil {
		t.Fatalf("healthz with a journal = %+v, want status ok with a lag", health)
	}

	// New ids must not collide with resurrected ones.
	sub := submit(t, ts, matrixBody(t, 9, "krum"))
	if sub.ID != "m3" {
		t.Errorf("post-recovery submission got id %s, want m3", sub.ID)
	}
	waitFinished(t, ts, sub.ID)

	// Graceful Stop: the final checkpoint is a zero-lag file whose
	// sequences cover everything ever granted, with no live matrices.
	ts.Close()
	srv.Stop()
	_, state, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if state.events != 0 || len(state.matrices) != 0 {
		t.Errorf("post-Stop journal: %d events, %d matrices; want a bare checkpoint", state.events, len(state.matrices))
	}
	if state.seq < 3 || state.wseq < 3 {
		t.Errorf("post-Stop sequences = (%d, %d), want at least (3, 3)", state.seq, state.wseq)
	}
}
