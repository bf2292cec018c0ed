package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"krum/internal/vec"
	"krum/scenario"
	"krum/scenario/shardproto"
	"krum/scenario/store"
)

// errVersionMismatch marks a join rejected for carrying the wrong
// result-semantics version or kernel accumulation order — fatal,
// unlike transient join failures: retrying cannot fix a build
// mismatch.
var errVersionMismatch = errors.New("worker: coordinator rejected our version")

// Worker is the worker half of sharded scenario execution
// (krum-scenariod -worker -join <coordinator>): it joins a
// coordinator's fleet, long-polls for cell tasks — one batched poll
// asking for as many tasks as it has free slots, instead of one poll
// per slot — runs scenario.ComputeCell on each, heartbeats all
// in-flight tasks in one batched message while cells train, and
// reports each stable-JSON distsgd.Result back. A worker keeps nothing
// between cells — no result store (the coordinator's single-flight
// store only ever sends it cells nobody holds) and no workload cache
// (construction is under a quarter of a percent of any cell; see
// EXPERIMENTS.md's deletion ledger) — so, cells being pure functions of
// their specs, it adds capacity without adding any source of
// nondeterminism: results are byte-identical wherever a cell lands.
//
// A worker whose lease expired (a long GC pause, a partition, a
// delayed heartbeat) is told so by HTTP 410 on its next message; it
// rejoins under a fresh identity and carries on. Any result it reports
// for a task that was reassigned meanwhile is answered Accepted=false
// and dropped. Transient failures back off with jitter, so a fleet of
// workers that all lost the same coordinator does not retry in
// lockstep.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g.
	// "http://host:8080".
	Coordinator string
	// Slots is the number of cells executed concurrently (0 means 1).
	Slots int
	// HeartbeatEvery overrides the heartbeat cadence (0 means a third
	// of the lease the coordinator granted at the latest join).
	HeartbeatEvery time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// beforeReport, when non-nil, runs between a cell's computation and
	// its report. It is the chaos tests' seam for a worker that goes
	// silent with a finished cell in hand: nothing else can keep a
	// one-slot worker from polling, and every poll renews its lease.
	beforeReport func(ctx context.Context)

	mu    sync.Mutex
	id    string
	token string
	lease time.Duration
	// executed counts cells this worker finished running (whether or
	// not the coordinator accepted the report).
	executed int
	// inflight holds the task ids currently executing — what the
	// shared heartbeat names in each batched message.
	inflight map[string]struct{}
	// joined is signalled (capacity one, never blocking) by every
	// successful join, so the heartbeat loop re-arms on the lease the
	// new grant carries. Run creates it; nil before that.
	joined chan struct{}
}

// Executed reports how many dispatched cells this worker has finished
// executing — an observability counter for operators (and tests)
// verifying that work actually landed on the fleet.
func (w *Worker) Executed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.executed
}

// logf forwards to Logf when set.
func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// post sends one protocol message and returns the status code and
// (bounded) response body.
func (w *Worker) post(ctx context.Context, path string, msg any) (int, []byte, error) {
	blob, err := json.Marshal(msg)
	if err != nil {
		return 0, nil, fmt.Errorf("encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(blob))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := shardproto.ReadBody(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

// join acquires a fleet identity, replacing stale (the id the caller
// observed failing; join is a no-op when another loop already
// rejoined).
func (w *Worker) join(ctx context.Context, stale string) error {
	w.mu.Lock()
	if w.id != "" && w.id != stale {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	status, body, err := w.post(ctx, "/fleet/join",
		shardproto.JoinRequest{Slots: w.slots(), Version: store.Version, Kernel: vec.KernelOrder()})
	if err != nil {
		return fmt.Errorf("joining %s: %w", w.Coordinator, err)
	}
	if status == http.StatusConflict {
		return fmt.Errorf("joining %s: %s: %w", w.Coordinator, body, errVersionMismatch)
	}
	if status != http.StatusOK {
		return fmt.Errorf("joining %s: status %d: %s", w.Coordinator, status, body)
	}
	grant, err := shardproto.DecodeJoinResponse(body)
	if err != nil {
		return fmt.Errorf("joining %s: %w", w.Coordinator, err)
	}
	w.mu.Lock()
	w.id = grant.WorkerID
	w.token = grant.Token
	w.lease = time.Duration(grant.LeaseMillis) * time.Millisecond
	w.mu.Unlock()
	select {
	case w.joined <- struct{}{}:
	default:
	}
	w.logf("joined %s as %s (lease %dms)", w.Coordinator, grant.WorkerID, grant.LeaseMillis)
	return nil
}

// slots returns the effective concurrent-execution capacity.
func (w *Worker) slots() int {
	if w.Slots <= 0 {
		return 1
	}
	return w.Slots
}

// identity snapshots the current fleet id, token and lease.
func (w *Worker) identity() (id, token string, lease time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id, w.token, w.lease
}

// addInflight registers an executing task with the shared heartbeat.
func (w *Worker) addInflight(taskID string) {
	w.mu.Lock()
	if w.inflight == nil {
		w.inflight = make(map[string]struct{})
	}
	w.inflight[taskID] = struct{}{}
	w.mu.Unlock()
}

// removeInflight deregisters a finished task.
func (w *Worker) removeInflight(taskID string) {
	w.mu.Lock()
	delete(w.inflight, taskID)
	w.mu.Unlock()
}

// inflightIDs snapshots the executing task ids, sorted for stable wire
// bytes.
func (w *Worker) inflightIDs() []string {
	w.mu.Lock()
	ids := make([]string, 0, len(w.inflight))
	for id := range w.inflight {
		ids = append(ids, id)
	}
	w.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Run joins the fleet and serves until ctx is cancelled. Transient
// join failures (coordinator not up yet, a partition) are retried —
// only a version rejection is fatal, because no amount of retrying
// makes an old binary's results safe to persist. Cells already
// executing when ctx falls are finished but their results are
// discarded unreported — indistinguishable, to the coordinator, from
// the process dying, which is the point: shutdown exercises the same
// reassignment path as a crash.
//
// One dispatcher loop polls for work — asking for as many tasks as it
// has free execution slots in a single batched request — and one
// shared heartbeat loop refreshes every in-flight task in a single
// batched message, so a worker's coordinator traffic stays O(1) per
// interval however many slots it runs.
func (w *Worker) Run(ctx context.Context) error {
	w.joined = make(chan struct{}, 1)
	for {
		err := w.join(ctx, "")
		if err == nil {
			break
		}
		if errors.Is(err, errVersionMismatch) {
			return err
		}
		if ctx.Err() != nil {
			return nil
		}
		w.logf("join: %v (retrying)", err)
		w.pause(ctx, jittered(500*time.Millisecond))
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx)
	}()

	slots := w.slots()
	sem := make(chan struct{}, slots)
	var taskWG sync.WaitGroup
dispatch:
	for ctx.Err() == nil {
		// Block for one free slot, then sweep up any additional free
		// slots without blocking — the batch size for this poll.
		select {
		case <-ctx.Done():
			break dispatch
		case sem <- struct{}{}:
		}
		free := 1
	sweep:
		for free < slots {
			select {
			case sem <- struct{}{}:
				free++
			default:
				break sweep
			}
		}
		tasks := w.pollBatch(ctx, free)
		// Register every task with the heartbeat BEFORE execution starts,
		// so no assignment sits unheartbeated in the gap.
		for i := range tasks {
			w.addInflight(tasks[i].ID)
		}
		for i := range tasks {
			task := tasks[i]
			taskWG.Add(1)
			go func() {
				defer func() {
					w.removeInflight(task.ID)
					<-sem
					taskWG.Done()
				}()
				w.executeTask(ctx, task)
			}()
		}
		for i := len(tasks); i < free; i++ {
			<-sem
		}
	}
	taskWG.Wait()
	stopHB()
	hbWG.Wait()
	return nil
}

// heartbeatEvery is the heartbeat cadence under the current identity:
// HeartbeatEvery when set, else a third of the lease granted at the
// latest join.
func (w *Worker) heartbeatEvery() time.Duration {
	if w.HeartbeatEvery > 0 {
		return w.HeartbeatEvery
	}
	_, _, lease := w.identity()
	if every := lease / 3; every > 0 {
		return every
	}
	return time.Second
}

// heartbeatLoop periodically sends ONE batched heartbeat naming every
// in-flight task (nothing when idle — the polls themselves refresh the
// lease then). A 410 triggers an immediate rejoin so executing cells
// get a live identity to report under. Every join, whichever loop made
// it, re-arms the ticker: a coordinator restarted with a shorter -lease
// must not find this loop still sleeping on a third of the old one
// while its tasks' deadlines lapse.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	ticker := time.NewTicker(w.heartbeatEvery())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-w.joined:
			ticker.Reset(w.heartbeatEvery())
			continue
		case <-ticker.C:
		}
		ids := w.inflightIDs()
		if len(ids) == 0 {
			continue
		}
		id, token, _ := w.identity()
		status, _, err := w.post(ctx, "/fleet/heartbeat",
			shardproto.HeartbeatRequest{WorkerID: id, Token: token, TaskIDs: ids})
		if err != nil {
			if ctx.Err() == nil {
				w.logf("heartbeat: %v", err)
			}
			continue
		}
		if status == http.StatusGone {
			w.logf("heartbeat: lease expired; rejoining")
			if err := w.join(ctx, id); err != nil && ctx.Err() == nil {
				w.logf("rejoin: %v (retrying)", err)
			}
		}
	}
}

// pollBatch performs one poll asking for up to max tasks and returns
// whatever the coordinator assigned (nil on idle windows and every
// error path). All failure branches are context-guarded — a cancelled
// poll is shutdown, not an error to log and back off from.
func (w *Worker) pollBatch(ctx context.Context, max int) []shardproto.Task {
	id, token, lease := w.identity()
	status, body, err := w.post(ctx, "/fleet/poll",
		shardproto.PollRequest{WorkerID: id, Token: token, MaxTasks: max})
	if err != nil {
		if ctx.Err() == nil {
			w.logf("poll: %v (retrying)", err)
			w.pause(ctx, jittered(lease/4))
		}
		return nil
	}
	switch status {
	case http.StatusOK:
	case http.StatusGone:
		w.logf("lease expired; rejoining")
		if err := w.join(ctx, id); err != nil && ctx.Err() == nil {
			w.logf("rejoin: %v (retrying)", err)
			w.pause(ctx, jittered(lease/4))
		}
		return nil
	default:
		if ctx.Err() == nil {
			w.logf("poll: status %d: %s (retrying)", status, body)
			w.pause(ctx, jittered(lease/4))
		}
		return nil
	}
	poll, err := shardproto.DecodePollResponse(body)
	if err != nil {
		if ctx.Err() == nil {
			w.logf("poll: %v (retrying)", err)
			w.pause(ctx, jittered(lease/4))
		}
		return nil
	}
	return poll.Tasks
}

// jittered spreads a retry delay uniformly over [d/2, 3d/2), so
// workers that all observed the same failure at the same moment (a
// coordinator restart, a partition healing) do not hammer it back in
// lockstep. d ≤ 0 falls back to 100ms before jittering.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// pause sleeps without outliving ctx.
func (w *Worker) pause(ctx context.Context, d time.Duration) {
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// executeTask computes one dispatched cell and reports the outcome; the
// shared heartbeat loop keeps the task's deadline fresh meanwhile.
func (w *Worker) executeTask(ctx context.Context, task shardproto.Task) {
	id, token, lease := w.identity()
	w.logf("executing %s (%s)", task.ID, task.Spec.Label())
	res, runErr := scenario.ComputeCell(task.Spec)
	w.mu.Lock()
	w.executed++
	w.mu.Unlock()
	if w.beforeReport != nil {
		w.beforeReport(ctx)
	}
	if ctx.Err() != nil {
		return // dying mid-cell: report nothing, let the lease expire
	}

	report := shardproto.ResultRequest{WorkerID: id, Token: token, TaskID: task.ID}
	if runErr != nil {
		report.Error = runErr.Error()
	} else {
		report.Result = res.AppendJSON(nil)
	}
	// Retry transient transport failures a few times before giving the
	// result up: losing it only costs a recompute (the task's deadline
	// expires and the coordinator reassigns), but a recompute is far
	// more expensive than a resend.
	for attempt := 1; ; attempt++ {
		status, body, err := w.post(ctx, "/fleet/result", report)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if attempt >= 3 {
				w.logf("reporting %s: %v (giving up; the coordinator will reassign)", task.ID, err)
				return
			}
			w.logf("reporting %s: %v (retrying)", task.ID, err)
			w.pause(ctx, jittered(lease/4))
			continue
		}
		if status == http.StatusGone {
			// Our identity is dead — the lease lapsed, or the coordinator
			// restarted and no longer knows this incarnation. Rejoin right
			// away and drop the result: the new coordinator re-dispatches
			// the cell, and purity makes the recompute byte-identical.
			w.logf("reporting %s: identity expired; rejoining and dropping the result", task.ID)
			if err := w.join(ctx, id); err != nil && ctx.Err() == nil {
				w.logf("rejoin: %v (the poll loop retries)", err)
			}
			return
		}
		if status != http.StatusOK {
			w.logf("reporting %s: status %d: %s", task.ID, status, body)
			return
		}
		var resp shardproto.ResultResponse
		if err = json.Unmarshal(body, &resp); err != nil {
			w.logf("reporting %s: %v", task.ID, err)
			return
		}
		if !resp.Accepted {
			w.logf("%s was reassigned; dropping duplicate result", task.ID)
		}
		return
	}
}
