package main

// The coordinator checkpoint/journal: an append-only JSONL event log
// that makes the coordinator's in-memory state — which matrices are
// live, how far the id sequences ran — recoverable after a crash. It
// deliberately journals NO results and no per-cell progress: every
// result byte lives in the content-addressed store, so recovery
// re-executes a resurrected matrix's cells and the completed prefix
// replays as store hits for free. The journal only has to remember
// which grids were promised to clients — two appends per matrix,
// however many cells it has.
//
// Format: one JSON event per line. Four event types —
//
//	submit      a matrix was accepted (id + expanded cells)
//	done        a matrix reached a terminal state (finished/aborted)
//	join        a fleet member was granted an id (bumps the id sequence)
//	checkpoint  a full-state snapshot REPLACING everything before it
//
// A checkpoint is written by rewriting the whole file (temp file +
// rename, the same atomicity discipline the store's segments use) with
// a single checkpoint event; ordinary events then append after it.
// "Journal lag" — events since the last checkpoint — is what /healthz
// reports and what triggers the automatic rewrite.
//
// Corruption tolerance matches the store's tail rules: a torn final
// line (the append the crash interrupted) is ignored, malformed
// interior lines are skipped, and unknown matrix references are
// dropped, as are matrices whose tenant or priority no submission
// could carry. Losing a submit event loses only a matrix the client was
// never acknowledged... and the client retries. The lost-update
// analysis for the checkpoint rewrite is in (*journal).rewrite.
//
// Journals written before per-cell progress was dropped carry one line
// per completed cell and completed-index arrays inside checkpoints;
// both were only ever informational, and replay reads past them.
//
// Lock order: journal.mu is taken BEFORE server/run locks (rewrite
// snapshots server state while holding mu); no journal caller may hold
// s.mu or run.mu when calling into the journal.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"

	"krum/scenario"
)

// defaultCheckpointEvery is the journal lag at which an automatic
// checkpoint rewrite triggers — small enough that replay after a crash
// is instant, large enough that the rewrite cost (proportional to live
// matrix count, not to history) amortizes away.
const defaultCheckpointEvery = 64

// journalEvent is one journal line; Type selects which other fields
// are meaningful.
type journalEvent struct {
	// Type is "submit", "done", "join" or "checkpoint".
	Type string `json:"type"`
	// Matrix is the matrix id for submit/done events.
	Matrix string `json:"matrix,omitempty"`
	// Cells is the submit event's expanded grid.
	Cells []scenario.Spec `json:"cells,omitempty"`
	// Tenant is the submit event's tenant attribution; empty in
	// pre-tenancy journals (replay normalizes it to the default).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the submit event's dispatch tier.
	Priority int `json:"priority,omitempty"`
	// Aborted marks a done event cut short by shutdown.
	Aborted bool `json:"aborted,omitempty"`
	// Worker is the join event's granted member id.
	Worker string `json:"worker,omitempty"`
	// Checkpoint is the checkpoint event's full snapshot.
	Checkpoint *checkpoint `json:"checkpoint,omitempty"`
}

// checkpoint is a full snapshot of the coordinator state the journal
// protects. Results are absent by design — the store holds them.
type checkpoint struct {
	// Seq is the matrix id sequence (ids are "m<seq>").
	Seq int `json:"seq"`
	// Wseq is the fleet member id sequence (ids are "w<seq>").
	Wseq int `json:"wseq"`
	// Matrices are the live (non-terminal) matrices.
	Matrices []checkpointMatrix `json:"matrices,omitempty"`
}

// checkpointMatrix is one live matrix inside a checkpoint.
type checkpointMatrix struct {
	// ID is the matrix id clients hold.
	ID string `json:"id"`
	// Cells is the expanded grid, in submission order.
	Cells []scenario.Spec `json:"cells"`
	// Tenant and Priority restore the matrix's dispatch attribution on
	// recovery, so a resumed backlog keeps its fair-share and tier
	// placement. Empty Tenant (a pre-tenancy journal) resumes as the
	// default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the matrix's dispatch tier.
	Priority int `json:"priority,omitempty"`
}

// journalState is what replaying a journal file yields.
type journalState struct {
	seq      int
	wseq     int
	matrices []checkpointMatrix
	// events is the replayed lag: events applied since the last
	// checkpoint (the whole file, if it has none).
	events int
	// skipped counts malformed interior lines, events referencing
	// unknown matrices and refused matrices — surfaced so operators see
	// journal damage.
	skipped int
}

// journal is the append handle plus lag accounting. All methods are
// safe for concurrent use.
type journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	lag  int
	// every is the auto-checkpoint threshold (defaultCheckpointEvery
	// unless a test lowers it).
	every int
}

// seqOf parses the numeric tail of an "m7"/"w12"-style id; 0 when the
// id is not of that shape.
func seqOf(id string, prefix byte) int {
	if len(id) < 2 || id[0] != prefix {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// openJournal replays path (absent is an empty journal) and returns
// the append handle plus the recovered state.
func openJournal(path string) (*journal, *journalState, error) {
	state := &journalState{}
	blob, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("reading journal %s: %w", path, err)
	}
	if len(blob) > 0 {
		replayJournal(blob, state)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening journal %s: %w", path, err)
	}
	j := &journal{path: path, f: f, lag: state.events, every: defaultCheckpointEvery}
	return j, state, nil
}

// replayJournal applies a journal file's events, in order, to state.
// The final line may be torn (the append a crash interrupted) — it is
// ignored, like the store's tail. Malformed interior lines, events
// for unknown matrices and matrices admit refuses are skipped and
// counted.
func replayJournal(blob []byte, state *journalState) {
	// byID mirrors state.matrices for O(1) event application; the slice
	// keeps submission order.
	byID := make(map[string]int)
	// admit appends a live matrix — from a checkpoint or a submit event
	// — unless its id is already live, it has no cells, or its
	// attribution is one no submission could carry (handleSubmit's
	// tenant and priority checks): a damaged priority would jump the
	// scheduler's queue. The tenant is normalized the same way, so a
	// pre-tenancy journal's empty tenant resumes as the default.
	admit := func(m checkpointMatrix) bool {
		tenant, err := canonTenant(m.Tenant)
		if _, dup := byID[m.ID]; dup || len(m.Cells) == 0 || err != nil || m.Priority < -maxPriority || m.Priority > maxPriority {
			state.skipped++
			return false
		}
		m.Tenant = tenant
		byID[m.ID] = len(state.matrices)
		state.matrices = append(state.matrices, m)
		return true
	}
	reset := func(cp *checkpoint) {
		state.seq, state.wseq = cp.Seq, cp.Wseq
		state.matrices, state.events, byID = nil, 0, make(map[string]int)
		for _, m := range cp.Matrices {
			admit(m)
		}
	}
	lines := bytes.Split(blob, []byte("\n"))
	// A file not ending in '\n' has a torn final element (the append
	// the crash interrupted); one that does has an empty final element.
	// An undecodable LAST line is therefore forgiven where an
	// undecodable interior line is counted as damage.
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev journalEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			if i == len(lines)-1 {
				break // torn final append
			}
			state.skipped++
			continue
		}
		switch ev.Type {
		case "checkpoint":
			if ev.Checkpoint == nil {
				state.skipped++
				continue
			}
			reset(ev.Checkpoint)
		case "submit":
			if ev.Matrix == "" || len(ev.Cells) == 0 {
				state.skipped++
				continue
			}
			// A refused matrix's id still advances the sequence: its client
			// may hold it, and must get a 404, not someone else's matrix.
			if n := seqOf(ev.Matrix, 'm'); n > state.seq {
				state.seq = n
			}
			if admit(checkpointMatrix{ID: ev.Matrix, Cells: ev.Cells, Tenant: ev.Tenant, Priority: ev.Priority}) {
				state.events++
			}
		case "cell":
			// Per-cell progress from an older binary's journal: recovery
			// re-executes every cell and the store answers the finished
			// ones, so the line carries nothing replay needs.
		case "done":
			idx, ok := byID[ev.Matrix]
			if !ok {
				state.skipped++
				continue
			}
			// Terminal matrices leave the journal: their results lived
			// only in coordinator memory, and the documented resume path
			// for them is resubmission (free, via the store).
			state.matrices = append(state.matrices[:idx], state.matrices[idx+1:]...)
			byID = make(map[string]int)
			for i := range state.matrices {
				byID[state.matrices[i].ID] = i
			}
			state.events++
		case "join":
			if n := seqOf(ev.Worker, 'w'); n > state.wseq {
				state.wseq = n
			}
			state.events++
		default:
			state.skipped++
		}
	}
}

// append writes one event and returns the resulting lag. A write error
// is returned but leaves the journal usable — the coordinator keeps
// serving (durability degrades, execution does not), and the next
// checkpoint rewrite restores a consistent file.
func (j *journal) append(ev journalEvent) (lag int, err error) {
	blob, err := json.Marshal(ev)
	if err != nil {
		return 0, fmt.Errorf("encoding journal event: %w", err)
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, fmt.Errorf("journal %s is closed", j.path)
	}
	if _, err := j.f.Write(blob); err != nil {
		return j.lag, fmt.Errorf("appending to journal %s: %w", j.path, err)
	}
	j.lag++
	return j.lag, nil
}

// Lag reports events appended since the last checkpoint.
func (j *journal) Lag() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lag
}

// rewrite replaces the journal with a single checkpoint event obtained
// from snapshot, which it calls while holding j.mu. That lock order
// (journal before server state) is what makes the rewrite lose no
// events: any append that completed before the rewrite took the lock
// had its state mutation applied even earlier — mutations always
// precede their events — so the snapshot covers it; any append that
// arrives later blocks on j.mu and lands in the new file.
func (j *journal) rewrite(snapshot func() checkpoint) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal %s is closed", j.path)
	}
	cp := snapshot()
	blob, err := json.Marshal(journalEvent{Type: "checkpoint", Checkpoint: &cp})
	if err != nil {
		return fmt.Errorf("encoding checkpoint: %w", err)
	}
	blob = append(blob, '\n')
	tmp := j.path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("writing checkpoint %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("publishing checkpoint %s: %w", j.path, err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The checkpoint IS on disk; only the append handle is gone.
		// Close the stale handle (it points at the renamed-over inode)
		// and report — the server keeps running journal-less-ly.
		j.f.Close()
		j.f = nil
		return fmt.Errorf("reopening journal %s after checkpoint: %w", j.path, err)
	}
	old := j.f
	j.f = f
	old.Close()
	j.lag = 0
	return nil
}

// close releases the append handle; later appends fail.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
