package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"krum/internal/vec"
	"krum/scenario"
	"krum/scenario/shardproto"
	"krum/scenario/store"
)

// The fleet is the coordinator half of sharded scenario execution: a
// tenant-aware dispatch queue plus heartbeat-based membership. Cells
// enter through fleet.execute (called under the store's single-flight,
// so one key is dispatched at most once however many matrices or
// callers want it), wait in per-tenant×priority ring queues, and are
// leased to workers that long-poll for work — up to a whole batch per
// poll. Dispatch order is priority first, then fair share: among the
// highest-priority non-empty queues the tenant with the fewest
// in-flight tasks goes next (least-recently-picked breaks ties), so
// two tenants submitting equal work each hold ~half the fleet however
// lopsided their queue depths are. The chosen queue gives up its head:
// workers are interchangeable and keep no state between cells, so
// nothing about the polling worker enters the choice. A worker silent
// for longer than the lease is presumed dead: its tasks are requeued
// and picked up by the next poll. When no live workers remain (none
// ever joined, or the fleet died mid-matrix), execution falls back to
// the local in-process path — a coordinator without a fleet is exactly
// the PR-4 single-process service.

// errNoWorkers resolves a task the fleet cannot execute; execute
// answers it by computing locally, so matrices always complete.
var errNoWorkers = errors.New("fleet: no live workers")

// maxTaskAttempts bounds how many workers may die holding one task
// before the coordinator stops re-dispatching and computes it locally.
const maxTaskAttempts = 3

// fleetTask is one dispatched cell.
type fleetTask struct {
	id   string
	spec scenario.Spec
	// tenant and priority place the task in its dispatch queue; they
	// come from the submission that first requested the cell (identical
	// cells from different tenants collapse in the store's
	// single-flight, so attribution goes to the first caller).
	tenant   string
	priority int
	attempts int
	// worker is the current assignee ("" while queued).
	worker string
	// deadline bounds how long an ASSIGNMENT may go unmentioned: set at
	// assignment and refreshed by heartbeats naming the task. A lapsed
	// deadline requeues the task even if its worker still polls —
	// covering a lost poll response and a lost result report, the two
	// failures worker-lease expiry cannot see.
	deadline time.Time
	// done closes when the task resolves; raw/err are valid after. raw
	// is the worker's report as it passed the canonical-bytes check —
	// the bytes the store keeps and the stream serves.
	done chan struct{}
	raw  json.RawMessage
	err  error
}

// taskRing is a FIFO queue over a reusable ring buffer. Unlike the
// fl.queue[1:] slice it replaced, every vacated slot is nilled out, so
// a dequeued task becomes collectible the moment its result is
// delivered — the PR-8 leak fix (the old backing array pinned every
// completed *fleetTask, spec and done channel included, for the life
// of the process).
type taskRing struct {
	buf  []*fleetTask
	head int
	n    int
}

// len reports the number of queued tasks.
func (r *taskRing) len() int { return r.n }

// at returns the i-th queued task (0 = oldest) without removing it.
func (r *taskRing) at(i int) *fleetTask {
	return r.buf[(r.head+i)%len(r.buf)]
}

// push appends a task, growing the ring when full.
func (r *taskRing) push(t *fleetTask) {
	if r.n == len(r.buf) {
		grown := make([]*fleetTask, 2*r.n+4)
		for i := 0; i < r.n; i++ {
			grown[i] = r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = t
	r.n++
}

// pop removes and returns the oldest task, clearing its slot. Panics
// on an empty ring, like indexing an empty slice would.
func (r *taskRing) pop() *fleetTask {
	if r.n == 0 {
		panic("taskRing.pop on an empty ring")
	}
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return t
}

// qkey identifies one dispatch queue: a tenant at a priority. Keeping
// tenant×priority queues separate (rather than one priority-sorted
// heap) makes fair-share selection a scan over live queues and keeps
// every queue strictly FIFO within its class.
type qkey struct {
	tenant   string
	priority int
}

// tenantStats is one tenant's dispatch accounting. queued/inflight are
// live gauges; dispatches/requeues are monotonic counters kept for the
// life of the process (they feed /metrics and the fair-share
// assertions in the load harness).
type tenantStats struct {
	queued     int
	inflight   int
	dispatches int
	requeues   int
	// lastPick is the global pick sequence at this tenant's most recent
	// dispatch — the round-robin tie-break among tenants with equal
	// in-flight counts.
	lastPick uint64
}

// fleetWorker is one fleet member's membership state.
type fleetWorker struct {
	id    string
	token string
	slots int
	// joined and lastSeen bound the member's lease.
	joined   time.Time
	lastSeen time.Time
	// tasks are the member's in-flight assignments, by task id.
	tasks map[string]*fleetTask
}

// fleet tracks members and the dispatch queues. All fields are guarded
// by mu; tasks resolve by closing done with raw/err already set.
type fleet struct {
	lease    time.Duration
	pollWait time.Duration

	mu      sync.Mutex
	workers map[string]*fleetWorker
	queues  map[qkey]*taskRing
	tenants map[string]*tenantStats
	// queued is the total across all queues (Σ tenantStats.queued).
	queued   int
	pickSeq  uint64
	assigned map[string]*fleetTask
	wseq     int
	tseq     int
	closed   bool
	// localFallbacks counts cells resolved to in-process computation —
	// no live workers, or a task that exhausted maxTaskAttempts.
	localFallbacks int
	// notify wakes one idle long-poll when a queue gains a task.
	notify chan struct{}
	// canonical is the admission rule for reported result bytes
	// (scenario.CanonicalResult; a field so a test can make it slow).
	// complete runs it WITHOUT mu held.
	canonical func(json.RawMessage) (json.RawMessage, bool)
}

// newFleet builds a fleet with the given liveness lease (0 means 10s);
// the long-poll window is derived from it.
func newFleet(lease time.Duration) *fleet {
	if lease <= 0 {
		lease = 10 * time.Second
	}
	pollWait := lease / 10
	if pollWait > time.Second {
		pollWait = time.Second
	}
	if pollWait < 20*time.Millisecond {
		pollWait = 20 * time.Millisecond
	}
	return &fleet{
		lease:     lease,
		pollWait:  pollWait,
		workers:   make(map[string]*fleetWorker),
		queues:    make(map[qkey]*taskRing),
		tenants:   make(map[string]*tenantStats),
		assigned:  make(map[string]*fleetTask),
		notify:    make(chan struct{}, 1),
		canonical: scenario.CanonicalResult,
	}
}

// tenantLocked returns (creating if needed) a tenant's stats; callers
// hold fl.mu.
func (fl *fleet) tenantLocked(tenant string) *tenantStats {
	ts, ok := fl.tenants[tenant]
	if !ok {
		ts = &tenantStats{}
		fl.tenants[tenant] = ts
	}
	return ts
}

// computeLocal is the coordinator's in-process compute path (no live
// workers, or a task that exhausted its attempts), counted for /fleet.
// It encodes the result the way a worker would before reporting it.
func (fl *fleet) computeLocal(spec scenario.Spec) (json.RawMessage, error) {
	fl.mu.Lock()
	fl.localFallbacks++
	fl.mu.Unlock()
	res, err := scenario.ComputeCell(spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// execute runs one cell through the fleet on behalf of a tenant and
// blocks until its result arrives (through however many lease-expiry
// reassignments it takes), falling back to local computation when no
// live workers exist. It is the compute function the store's
// single-flight invokes, so identical concurrent cells reach it
// exactly once — under the first caller's tenant and priority. The
// result is its canonical bytes: a worker's report is handed on as it
// arrived, never decoded here.
func (fl *fleet) execute(spec scenario.Spec, tenant string, priority int) (json.RawMessage, error) {
	t, ok := fl.enqueue(spec, tenant, priority)
	if !ok {
		return fl.computeLocal(spec)
	}
	<-t.done
	if errors.Is(t.err, errNoWorkers) {
		return fl.computeLocal(spec)
	}
	return t.raw, t.err
}

// enqueue appends a task to its tenant×priority queue; ok is false
// when the fleet has no live workers (or is closed) and the caller
// should run locally.
func (fl *fleet) enqueue(spec scenario.Spec, tenant string, priority int) (*fleetTask, bool) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed || len(fl.workers) == 0 {
		return nil, false
	}
	fl.tseq++
	t := &fleetTask{
		id:       fmt.Sprintf("t%d", fl.tseq),
		spec:     spec,
		tenant:   tenant,
		priority: priority,
		done:     make(chan struct{}),
	}
	fl.pushLocked(t)
	fl.signal()
	return t, true
}

// pushLocked places a task on its queue and bumps the gauges; callers
// hold fl.mu.
func (fl *fleet) pushLocked(t *fleetTask) {
	key := qkey{tenant: t.tenant, priority: t.priority}
	r, ok := fl.queues[key]
	if !ok {
		r = &taskRing{}
		fl.queues[key] = r
	}
	r.push(t)
	fl.tenantLocked(t.tenant).queued++
	fl.queued++
}

// signal wakes one idle poller; callers hold fl.mu. The channel is a
// level trigger with capacity one — a poller that misses the edge
// still re-checks the queue on its poll-window timeout.
func (fl *fleet) signal() {
	select {
	case fl.notify <- struct{}{}:
	default:
	}
}

// join admits a new member and returns its identity grant, including
// the per-member secret every later message must echo.
func (fl *fleet) join(slots int) shardproto.JoinResponse {
	token := make([]byte, 16)
	rand.Read(token) // never fails (crypto/rand contract)
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.wseq++
	w := &fleetWorker{
		id:       fmt.Sprintf("w%d", fl.wseq),
		token:    hex.EncodeToString(token),
		slots:    slots,
		joined:   time.Now(),
		lastSeen: time.Now(),
		tasks:    make(map[string]*fleetTask),
	}
	fl.workers[w.id] = w
	return shardproto.JoinResponse{
		WorkerID:    w.id,
		Token:       w.token,
		LeaseMillis: int(fl.lease / time.Millisecond),
	}
}

// restoreWseq advances the member id sequence to at least n — journal
// recovery calls it so a restarted coordinator never re-grants an id
// some pre-crash worker may still be presenting (the token check would
// reject the zombie anyway, but unique ids keep logs and tests
// unambiguous about which incarnation a member belongs to).
func (fl *fleet) restoreWseq(n int) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if n > fl.wseq {
		fl.wseq = n
	}
}

// currentWseq reads the member id sequence for checkpointing.
func (fl *fleet) currentWseq() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.wseq
}

// member authenticates (id, token) against the live membership;
// callers hold fl.mu. A bad token is indistinguishable from an expired
// id, so guessing sequential worker ids grants nothing.
func (fl *fleet) member(workerID, token string) *fleetWorker {
	w, ok := fl.workers[workerID]
	if !ok || w.token != token {
		return nil
	}
	return w
}

// betterLocked orders two non-empty queues for dispatch: higher
// priority first, then the tenant with fewer in-flight tasks (the
// fair-share invariant), then the tenant picked least recently
// (round-robin among equals), then tenant name for determinism.
// Callers hold fl.mu.
func (fl *fleet) betterLocked(a, b qkey) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	sa, sb := fl.tenantLocked(a.tenant), fl.tenantLocked(b.tenant)
	if sa.inflight != sb.inflight {
		return sa.inflight < sb.inflight
	}
	if sa.lastPick != sb.lastPick {
		return sa.lastPick < sb.lastPick
	}
	return a.tenant < b.tenant
}

// pickLocked chooses and removes the next task, or nil when nothing is
// queued: the best queue by betterLocked gives up its head. Callers
// hold fl.mu.
func (fl *fleet) pickLocked() *fleetTask {
	if fl.queued == 0 {
		return nil
	}
	var bestKey qkey
	haveBest := false
	for k, r := range fl.queues {
		if r.len() == 0 {
			continue
		}
		if !haveBest || fl.betterLocked(k, bestKey) {
			bestKey, haveBest = k, true
		}
	}
	if !haveBest {
		return nil
	}
	r := fl.queues[bestKey]
	t := r.pop()
	if r.len() == 0 {
		delete(fl.queues, bestKey)
	}
	ts := fl.tenantLocked(t.tenant)
	ts.queued--
	fl.queued--
	ts.inflight++
	ts.dispatches++
	fl.pickSeq++
	ts.lastPick = fl.pickSeq
	return t
}

// tryAssign refreshes the member's lease and hands it up to max queued
// tasks (DecodePollRequest guarantees max ≥ 1). known is false for
// expired, never-joined or wrongly-authenticated ids — the 410 that
// tells a worker to rejoin.
func (fl *fleet) tryAssign(workerID, token string, max int) (tasks []*fleetTask, known bool) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	w := fl.member(workerID, token)
	if w == nil {
		return nil, false
	}
	w.lastSeen = time.Now()
	if fl.closed {
		return nil, true
	}
	for len(tasks) < max {
		t := fl.pickLocked()
		if t == nil {
			break
		}
		t.worker = workerID
		t.attempts++
		t.deadline = time.Now().Add(fl.lease)
		fl.assigned[t.id] = t
		w.tasks[t.id] = t
		tasks = append(tasks, t)
	}
	if fl.queued > 0 {
		fl.signal()
	}
	return tasks, true
}

// heartbeat refreshes a member's lease and, for every named task
// assigned to that member, the task's own deadline; false means the id
// is unknown (expired) and the worker must rejoin.
func (fl *fleet) heartbeat(workerID, token string, taskIDs []string) bool {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	w := fl.member(workerID, token)
	if w == nil {
		return false
	}
	now := time.Now()
	w.lastSeen = now
	for _, taskID := range taskIDs {
		if t, ok := fl.assigned[taskID]; ok && t.worker == workerID {
			t.deadline = now.Add(fl.lease)
		}
	}
	return true
}

// unassignLocked removes a task from the assignment maps and releases
// its tenant's in-flight slot; callers hold fl.mu. Every task that
// entered the assigned state passes through here exactly once, however
// it leaves (completion, garbage payload, expiry, shutdown).
func (fl *fleet) unassignLocked(t *fleetTask) {
	delete(fl.assigned, t.id)
	if w, ok := fl.workers[t.worker]; ok {
		delete(w.tasks, t.id)
	}
	fl.tenantLocked(t.tenant).inflight--
}

// complete resolves a task with a worker's report. known is false when
// the reporter does not authenticate — a lease that expired, or a
// member of a pre-crash coordinator incarnation — and the caller
// answers 410 so the worker rejoins immediately instead of reporting
// into the void until its polls notice. An authenticated report is
// accepted only if the task is still assigned to that worker and a
// success payload survives the canonical-bytes check: a report for a
// task requeued after expiry (or already resolved by the replacement)
// answers accepted=false and is discarded — the executions are
// byte-identical, so dropping the stale copy loses nothing and keeps
// the store to one save per key — while a malformed payload requeues
// the task, treating its sender as faulty.
//
// The check decodes and re-encodes the whole payload, so it runs with
// fl.mu RELEASED — polls, enqueues, heartbeats and /fleet reads do not
// queue behind it — and the assignment is looked up again afterwards:
// a lease sweep may have taken the task back meanwhile, which makes
// this an ordinary stale report.
func (fl *fleet) complete(workerID, token, taskID string, raw json.RawMessage, errMsg string) (accepted, known bool) {
	t, known := fl.assignment(workerID, token, taskID)
	if t == nil {
		return false, known
	}
	valid := true
	if errMsg == "" {
		raw, valid = fl.canonical(raw)
	}
	fl.mu.Lock()
	if fl.assigned[taskID] != t || t.worker != workerID {
		fl.mu.Unlock()
		return false, true
	}
	fl.unassignLocked(t)
	if !valid {
		// The worker is alive but talking garbage: take the task away
		// from it and let someone else compute.
		resolve := fl.requeueLocked(t)
		fl.mu.Unlock()
		resolveAll(resolve)
		return false, true
	}
	fl.mu.Unlock()
	if errMsg != "" {
		t.err = errors.New(errMsg)
	} else {
		t.raw = raw
	}
	close(t.done)
	return true, true
}

// assignment authenticates a reporter, refreshes its lease and returns
// the named task if it is assigned to that worker (nil otherwise);
// known is false when the reporter does not authenticate.
func (fl *fleet) assignment(workerID, token, taskID string) (t *fleetTask, known bool) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	w := fl.member(workerID, token)
	if w == nil {
		return nil, false
	}
	w.lastSeen = time.Now()
	if t := fl.assigned[taskID]; t != nil && t.worker == workerID {
		return t, true
	}
	return nil, true
}

// requeueLocked returns an unassigned-again task to its queue, or —
// when its attempts are exhausted — hands it back for resolution to
// the local fallback. Callers hold fl.mu and have already passed the
// task through unassignLocked.
func (fl *fleet) requeueLocked(t *fleetTask) []*fleetTask {
	t.worker = ""
	fl.tenantLocked(t.tenant).requeues++
	if t.attempts >= maxTaskAttempts {
		return []*fleetTask{t}
	}
	fl.pushLocked(t)
	fl.signal()
	return nil
}

// resolveAll resolves tasks to the local fallback, outside fl.mu.
func resolveAll(tasks []*fleetTask) {
	for _, t := range tasks {
		t.err = errNoWorkers
		close(t.done)
	}
}

// drainQueuesLocked empties every queue for local-fallback resolution,
// zeroing the queue gauges; callers hold fl.mu.
func (fl *fleet) drainQueuesLocked() []*fleetTask {
	var drained []*fleetTask
	for key, r := range fl.queues {
		for r.len() > 0 {
			drained = append(drained, r.pop())
		}
		delete(fl.queues, key)
	}
	for _, ts := range fl.tenants {
		ts.queued = 0
	}
	fl.queued = 0
	return drained
}

// sweep expires members whose lease lapsed and assignments whose own
// deadline lapsed, requeueing the affected tasks (tasks that already
// bounced off maxTaskAttempts assignments resolve to the local
// fallback instead). When the last member expires, every pending task
// resolves to the local fallback so matrices complete without a fleet.
func (fl *fleet) sweep(now time.Time) {
	fl.mu.Lock()
	var resolve []*fleetTask
	for id, w := range fl.workers {
		if now.Sub(w.lastSeen) <= fl.lease {
			continue
		}
		delete(fl.workers, id)
		for _, t := range w.tasks {
			fl.unassignLocked(t)
			resolve = append(resolve, fl.requeueLocked(t)...)
		}
	}
	// Task-level deadlines catch assignments a live worker lost (a poll
	// response that never arrived) or finished but failed to report.
	for _, t := range fl.assigned {
		if now.Before(t.deadline) {
			continue
		}
		fl.unassignLocked(t)
		resolve = append(resolve, fl.requeueLocked(t)...)
	}
	if len(fl.workers) == 0 {
		resolve = append(resolve, fl.drainQueuesLocked()...)
	}
	fl.mu.Unlock()
	resolveAll(resolve)
}

// close drains the fleet at shutdown: every pending task resolves to
// the local fallback (so in-flight cells still finish and persist, the
// PR-4 shutdown contract), and later polls find an empty queue.
func (fl *fleet) close() {
	fl.mu.Lock()
	fl.closed = true
	resolve := fl.drainQueuesLocked()
	for _, t := range fl.assigned {
		resolve = append(resolve, t)
	}
	fl.assigned = make(map[string]*fleetTask)
	for _, w := range fl.workers {
		w.tasks = make(map[string]*fleetTask)
	}
	for _, ts := range fl.tenants {
		ts.inflight = 0
	}
	fl.mu.Unlock()
	for _, t := range resolve {
		t.err = errNoWorkers
		close(t.done)
	}
}

// fleetWorkerJSON is one member's row in the GET /fleet reply.
type fleetWorkerJSON struct {
	// ID is the coordinator-assigned member identity.
	ID string `json:"id"`
	// Slots is the capacity the member declared at join.
	Slots int `json:"slots"`
	// InFlight counts the member's currently-assigned tasks.
	InFlight int `json:"in_flight"`
	// LastSeenMillis is the age of the member's last message.
	LastSeenMillis int64 `json:"last_seen_millis"`
}

// fleetTenantJSON is one tenant's row in the GET /fleet reply (and the
// per-tenant series behind GET /metrics).
type fleetTenantJSON struct {
	// Tenant is the submission-supplied tenant name ("default" when the
	// submission named none).
	Tenant string `json:"tenant"`
	// Queued counts the tenant's tasks waiting for a poll, across all
	// of its priority queues.
	Queued int `json:"queued"`
	// InFlight counts the tenant's tasks currently leased to members.
	InFlight int `json:"in_flight"`
	// Dispatches counts task assignments to workers since the
	// coordinator started — the fair-share measurable.
	Dispatches int `json:"dispatches"`
	// Requeues counts tasks taken back from workers (lease expiry, task
	// deadline, garbage payloads) since the coordinator started.
	Requeues int `json:"requeues"`
}

// fleetQueueDepthJSON is one tenant×priority queue's depth, for
// /metrics (GET /fleet aggregates per tenant instead).
type fleetQueueDepthJSON struct {
	// Tenant is the queue's tenant.
	Tenant string `json:"tenant"`
	// Priority is the queue's priority tier.
	Priority int `json:"priority"`
	// Depth counts queued tasks.
	Depth int `json:"depth"`
}

// fleetStatusJSON is the GET /fleet reply.
type fleetStatusJSON struct {
	// Workers lists live members in join order.
	Workers []fleetWorkerJSON `json:"workers"`
	// Queued counts tasks waiting for a poll, across all tenants.
	Queued int `json:"queued"`
	// Assigned counts tasks leased to members.
	Assigned int `json:"assigned"`
	// LeaseMillis is the liveness lease members must beat.
	LeaseMillis int `json:"lease_millis"`
	// Tenants lists per-tenant queue gauges and dispatch counters,
	// sorted by tenant name. A tenant stays listed (counters intact)
	// after its queues drain.
	Tenants []fleetTenantJSON `json:"tenants,omitempty"`
	// LocalFallbacks counts cells the coordinator computed in-process
	// (no live workers, or a task that exhausted its attempts).
	LocalFallbacks int `json:"local_fallbacks"`
}

// status snapshots the fleet for the membership endpoint.
func (fl *fleet) status() fleetStatusJSON {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	now := time.Now()
	out := fleetStatusJSON{
		Queued:         fl.queued,
		Assigned:       len(fl.assigned),
		LeaseMillis:    int(fl.lease / time.Millisecond),
		LocalFallbacks: fl.localFallbacks,
	}
	for _, w := range fl.workers {
		out.Workers = append(out.Workers, fleetWorkerJSON{
			ID:             w.id,
			Slots:          w.slots,
			InFlight:       len(w.tasks),
			LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out.Workers, func(i, j int) bool {
		a, b := out.Workers[i].ID, out.Workers[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	for tenant, ts := range fl.tenants {
		out.Tenants = append(out.Tenants, fleetTenantJSON{
			Tenant:     tenant,
			Queued:     ts.queued,
			InFlight:   ts.inflight,
			Dispatches: ts.dispatches,
			Requeues:   ts.requeues,
		})
	}
	sort.Slice(out.Tenants, func(i, j int) bool {
		return out.Tenants[i].Tenant < out.Tenants[j].Tenant
	})
	return out
}

// queueDepths snapshots every tenant×priority queue's depth for
// /metrics, sorted by tenant then priority.
func (fl *fleet) queueDepths() []fleetQueueDepthJSON {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	out := make([]fleetQueueDepthJSON, 0, len(fl.queues))
	for key, r := range fl.queues {
		out = append(out, fleetQueueDepthJSON{Tenant: key.tenant, Priority: key.priority, Depth: r.len()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Priority < out[j].Priority
	})
	return out
}

// handleFleetJoin admits a worker (POST /fleet/join).
func (s *Server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	body, err := shardproto.ReadBody(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := shardproto.DecodeJoinRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A worker built before a result-affecting change must not
	// contribute cells: its results would persist under the NEW version
	// salt — a silent stale-serve the salt exists to prevent.
	if req.Version != store.Version {
		http.Error(w, fmt.Sprintf("version mismatch: worker %q, coordinator %q (rebuild the worker)",
			req.Version, store.Version), http.StatusConflict)
		return
	}
	// The kernel accumulation-order family is pinned exactly like the
	// version salt: the coordinator persists worker results under keys
	// salted with ITS order family, so a worker computing under another
	// family would poison the store with results the coordinator's own
	// kernels cannot bit-reproduce. Order-identical tiers (go/sse2)
	// share a family id and mix freely; a mismatch means a genuinely
	// different rounding order (e.g. an AVX2 worker joining a pair2
	// coordinator) and is refused.
	if req.Kernel != vec.KernelOrder() {
		http.Error(w, fmt.Sprintf("kernel order mismatch: worker %q, coordinator %q (set KRUM_KERNEL_TIER to a matching tier)",
			req.Kernel, vec.KernelOrder()), http.StatusConflict)
		return
	}
	s.mu.Lock()
	stopped := s.stopped
	s.mu.Unlock()
	if stopped {
		http.Error(w, "server is shutting down", http.StatusServiceUnavailable)
		return
	}
	grant := s.fleet.join(req.Slots)
	// Journal the granted id (mutation first, event second — the
	// ordering journal.rewrite relies on) so a restarted coordinator
	// resumes the sequence past every id ever handed out.
	s.journalAppend(journalEvent{Type: "join", Worker: grant.WorkerID})
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, grant)
}

// handleFleetPoll leases up to MaxTasks tasks to a worker (POST
// /fleet/poll), holding the request open for the poll window when the
// queues are idle.
func (s *Server) handleFleetPoll(w http.ResponseWriter, r *http.Request) {
	body, err := shardproto.ReadBody(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := shardproto.DecodePollRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	deadline := time.NewTimer(s.fleet.pollWait)
	defer deadline.Stop()
	for {
		tasks, known := s.fleet.tryAssign(req.WorkerID, req.Token, req.MaxTasks)
		if !known {
			http.Error(w, "unknown worker id (lease expired; rejoin)", http.StatusGone)
			return
		}
		if len(tasks) > 0 {
			w.Header().Set("Content-Type", "application/json")
			resp := shardproto.PollResponse{Tasks: make([]shardproto.Task, len(tasks))}
			for i, t := range tasks {
				resp.Tasks[i] = shardproto.Task{ID: t.id, Spec: t.spec}
			}
			writeJSON(w, resp)
			return
		}
		select {
		case <-s.fleet.notify:
		case <-deadline.C:
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, shardproto.PollResponse{})
			return
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, shardproto.PollResponse{})
			return
		}
	}
}

// handleFleetHeartbeat refreshes a worker's lease and its named tasks'
// deadlines (POST /fleet/heartbeat).
func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, err := shardproto.ReadBody(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := shardproto.DecodeHeartbeatRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.fleet.heartbeat(req.WorkerID, req.Token, req.TaskIDs) {
		http.Error(w, "unknown worker id (lease expired; rejoin)", http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleFleetResult records a worker's task report (POST
// /fleet/result).
func (s *Server) handleFleetResult(w http.ResponseWriter, r *http.Request) {
	body, err := shardproto.ReadBody(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := shardproto.DecodeResultRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	accepted, known := s.fleet.complete(req.WorkerID, req.Token, req.TaskID, req.Result, req.Error)
	if !known {
		// The reporter's identity means nothing here — its lease lapsed,
		// or it joined a previous coordinator incarnation. 410 sends it
		// straight to rejoin (the same signal poll and heartbeat give),
		// which is how a restarted coordinator re-adopts a live fleet
		// mid-matrix; the in-flight result is dropped and its cell is
		// re-dispatched, recomputing to identical bytes.
		http.Error(w, "unknown worker id (lease expired; rejoin)", http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, shardproto.ResultResponse{Accepted: accepted})
}

// handleFleetStatus reports fleet membership, queue depth and tenant
// counters (GET /fleet).
func (s *Server) handleFleetStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.fleet.status())
}
