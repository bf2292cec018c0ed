package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"krum/distsgd"
	"krum/scenario"
)

// fleetSpec builds a distinct (but never-executed) cell for fleet
// dispatch unit tests; seed tells the cells apart.
func fleetSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Workload:  "gmm(k=3,dim=4,radius=4,sigma=0.5)",
		Rule:      "krum",
		Schedule:  "const(gamma=0.05)",
		N:         5,
		F:         1,
		Rounds:    4,
		BatchSize: 4,
		Seed:      seed,
	}
}

// TestFleetReleasedTasksCollectible is the regression test for the
// dispatch-queue memory leak: the old slice queue (fl.queue =
// fl.queue[1:]) never cleared dequeued slots, so the backing array
// pinned every completed *fleetTask — spec, result bytes and done
// channel — for the life of the coordinator. The ring queue nils every
// vacated slot; this test proves completed tasks actually become
// garbage-collectible.
func TestFleetReleasedTasksCollectible(t *testing.T) {
	fl := newFleet(time.Minute)
	grant := fl.join(1)

	const tasks = 32
	var collected atomic.Int32
	// Enqueue, assign and complete inside a closure so the test frame
	// holds no task references afterwards.
	func() {
		for i := 0; i < tasks; i++ {
			task, ok := fl.enqueue(fleetSpec(uint64(i)), defaultTenant, 0)
			if !ok {
				t.Fatal("enqueue refused with a live worker")
			}
			runtime.SetFinalizer(task, func(*fleetTask) { collected.Add(1) })
			assigned, known := fl.tryAssign(grant.WorkerID, grant.Token, 1)
			if !known || len(assigned) != 1 || assigned[0] != task {
				t.Fatalf("task %d: tryAssign returned %d tasks (known=%v)", i, len(assigned), known)
			}
			if accepted, known := fl.complete(grant.WorkerID, grant.Token, task.id, nil, "unit test"); !accepted || !known {
				t.Fatalf("task %d: complete not accepted", i)
			}
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < tasks && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := collected.Load(); got < tasks {
		t.Fatalf("only %d of %d completed tasks were collected — the dispatch queue still pins released tasks", got, tasks)
	}
}

// TestFleetFairShareDispatch pins the fair-share invariant: two
// equal-priority tenants with queued backlogs alternate dispatches, so
// each holds half the fleet's attention regardless of queue depth.
func TestFleetFairShareDispatch(t *testing.T) {
	fl := newFleet(time.Minute)
	grant := fl.join(64)
	// Lopsided backlogs: tenant a queues 3x what tenant b does.
	for i := 0; i < 30; i++ {
		if _, ok := fl.enqueue(fleetSpec(uint64(i)), "tenant-a", 0); !ok {
			t.Fatal("enqueue refused")
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok := fl.enqueue(fleetSpec(uint64(100+i)), "tenant-b", 0); !ok {
			t.Fatal("enqueue refused")
		}
	}
	// Assign 20 tasks one at a time without completing any: in-flight
	// balance is exactly what fair share equalizes.
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		assigned, known := fl.tryAssign(grant.WorkerID, grant.Token, 1)
		if !known || len(assigned) != 1 {
			t.Fatalf("assign %d: got %d tasks", i, len(assigned))
		}
		counts[assigned[0].tenant]++
	}
	if counts["tenant-a"] != 10 || counts["tenant-b"] != 10 {
		t.Fatalf("dispatches a=%d b=%d, want a perfect 10/10 split under fair share", counts["tenant-a"], counts["tenant-b"])
	}
}

// TestFleetPriorityDispatch pins strict tier precedence: a
// higher-priority tenant's backlog drains completely before any
// lower-priority task dispatches.
func TestFleetPriorityDispatch(t *testing.T) {
	fl := newFleet(time.Minute)
	grant := fl.join(64)
	for i := 0; i < 5; i++ {
		if _, ok := fl.enqueue(fleetSpec(uint64(i)), "background", 0); !ok {
			t.Fatal("enqueue refused")
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok := fl.enqueue(fleetSpec(uint64(50+i)), "rush", 5); !ok {
			t.Fatal("enqueue refused")
		}
	}
	var order []string
	for i := 0; i < 8; i++ {
		assigned, _ := fl.tryAssign(grant.WorkerID, grant.Token, 1)
		if len(assigned) != 1 {
			t.Fatalf("assign %d: got %d tasks", i, len(assigned))
		}
		order = append(order, assigned[0].tenant)
	}
	want := []string{"rush", "rush", "rush", "background", "background", "background", "background", "background"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want priority-5 tasks strictly first", order)
		}
	}
}

// TestFleetStrictFIFO pins that a tenant×priority queue dispatches in
// enqueue order whoever polls: two workload×seed groups interleaved in
// one ring, polled by a worker that just ran a cell of the first group,
// come out exactly as they went in — nothing about the poller's history
// reorders the queue.
func TestFleetStrictFIFO(t *testing.T) {
	fl := newFleet(time.Minute)
	grant := fl.join(64)
	groupA, groupB := fleetSpec(1), fleetSpec(2)
	groupB.Workload = "gmm(k=3,dim=6,radius=4,sigma=0.5)"
	// The worker's history: one cell of group A, assigned and finished.
	if _, ok := fl.enqueue(groupA, defaultTenant, 0); !ok {
		t.Fatal("enqueue refused")
	}
	first, _ := fl.tryAssign(grant.WorkerID, grant.Token, 1)
	if len(first) != 1 {
		t.Fatalf("warm-up assign: got %d tasks", len(first))
	}
	if accepted, _ := fl.complete(grant.WorkerID, grant.Token, first[0].id, nil, "unit test"); !accepted {
		t.Fatal("warm-up complete not accepted")
	}

	var want []string
	for i, spec := range []scenario.Spec{groupB, groupA, groupB, groupA, groupA, groupB} {
		spec.Rounds += i // distinct cells, same groups
		task, ok := fl.enqueue(spec, defaultTenant, 0)
		if !ok {
			t.Fatal("enqueue refused")
		}
		want = append(want, task.id)
	}
	var got []string
	// Singly and in a batch: both walk the ring from its head.
	for _, max := range []int{1, 1, 4} {
		assigned, _ := fl.tryAssign(grant.WorkerID, grant.Token, max)
		if len(assigned) != max {
			t.Fatalf("assign(max=%d): got %d tasks", max, len(assigned))
		}
		for _, task := range assigned {
			got = append(got, task.id)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want enqueue order %v", got, want)
	}
}

// TestFleetBatchedAssignAndHeartbeat pins the batched protocol paths:
// one tryAssign hands out up to max tasks, and one heartbeat naming
// several tasks refreshes every named deadline.
func TestFleetBatchedAssignAndHeartbeat(t *testing.T) {
	fl := newFleet(50 * time.Millisecond)
	grant := fl.join(8)
	for i := 0; i < 5; i++ {
		if _, ok := fl.enqueue(fleetSpec(uint64(i)), defaultTenant, 0); !ok {
			t.Fatal("enqueue refused")
		}
	}
	first, known := fl.tryAssign(grant.WorkerID, grant.Token, 3)
	if !known || len(first) != 3 {
		t.Fatalf("batched assign: got %d tasks (known=%v), want 3", len(first), known)
	}
	rest, _ := fl.tryAssign(grant.WorkerID, grant.Token, 10)
	if len(rest) != 2 {
		t.Fatalf("second batched assign: got %d tasks, want the remaining 2", len(rest))
	}

	ids := make([]string, 0, len(first))
	for _, task := range first {
		ids = append(ids, task.id)
	}
	// Let the original deadlines lapse, keeping them alive with batched
	// heartbeats — then sweep: the heartbeated 3 must survive, the
	// unheartbeated 2 requeue.
	for i := 0; i < 4; i++ {
		time.Sleep(20 * time.Millisecond)
		if !fl.heartbeat(grant.WorkerID, grant.Token, ids) {
			t.Fatal("heartbeat rejected a live member")
		}
	}
	// The worker itself is alive (heartbeats refreshed lastSeen); only
	// the two never-heartbeated task deadlines have lapsed.
	fl.sweep(time.Now())
	fl.mu.Lock()
	survivors := len(fl.assigned)
	requeued := fl.queued
	fl.mu.Unlock()
	if survivors != 3 || requeued != 2 {
		t.Fatalf("after sweep: %d assigned, %d requeued; want the 3 heartbeated tasks assigned and 2 requeued", survivors, requeued)
	}
}

// TestFleetStatusTenantCounters pins the per-tenant observability
// surface: dispatch and requeue counters land on the right tenant.
func TestFleetStatusTenantCounters(t *testing.T) {
	fl := newFleet(time.Minute)
	grant := fl.join(8)
	if _, ok := fl.enqueue(fleetSpec(1), "tenant-x", 0); !ok {
		t.Fatal("enqueue refused")
	}
	assigned, _ := fl.tryAssign(grant.WorkerID, grant.Token, 1)
	if len(assigned) != 1 {
		t.Fatal("no task assigned")
	}
	// A garbage payload requeues the task and counts a requeue.
	if accepted, known := fl.complete(grant.WorkerID, grant.Token, assigned[0].id, []byte(`{"bogus": 1}`), ""); accepted || !known {
		t.Fatalf("garbage payload: accepted=%v known=%v", accepted, known)
	}
	st := fl.status()
	var row *fleetTenantJSON
	for i := range st.Tenants {
		if st.Tenants[i].Tenant == "tenant-x" {
			row = &st.Tenants[i]
		}
	}
	if row == nil {
		t.Fatalf("tenant-x missing from status tenants: %+v", st.Tenants)
	}
	if row.Dispatches != 1 || row.Requeues != 1 || row.Queued != 1 || row.InFlight != 0 {
		t.Fatalf("tenant-x counters %+v, want 1 dispatch, 1 requeue, 1 queued, 0 in flight", *row)
	}
	depths := fl.queueDepths()
	if len(depths) != 1 || depths[0] != (fleetQueueDepthJSON{Tenant: "tenant-x", Priority: 0, Depth: 1}) {
		t.Fatalf("queue depths %+v, want one tenant-x/0 queue of depth 1", depths)
	}
}

// TestFleetRingWrapAround pins the ring's push/pop arithmetic across
// wraparound and growth, which index math makes easy to get wrong:
// FIFO order holds and every vacated slot is cleared.
func TestFleetRingWrapAround(t *testing.T) {
	r := &taskRing{}
	mk := func(n int) *fleetTask { return &fleetTask{id: fmt.Sprintf("t%d", n)} }
	// Force wraparound: fill, drain a prefix, refill past the old tail.
	for i := 0; i < 4; i++ {
		r.push(mk(i))
	}
	for i := 0; i < 3; i++ {
		if got := r.pop(); got.id != fmt.Sprintf("t%d", i) {
			t.Fatalf("pop %d: got %s", i, got.id)
		}
	}
	for i := 4; i < 7; i++ {
		r.push(mk(i))
	}
	if r.head+r.len() <= len(r.buf) {
		t.Fatalf("ring did not wrap: head %d, %d queued, %d slots", r.head, r.len(), len(r.buf))
	}
	// Queue now: 3 4 5 6, wrapped and full. Grow it while wrapped.
	for i := 7; i < 10; i++ {
		r.push(mk(i))
	}
	for i := 3; i < 10; i++ {
		if got := r.pop(); got.id != fmt.Sprintf("t%d", i) {
			t.Fatalf("after wrap and growth: got %s, want t%d", got.id, i)
		}
	}
	if r.len() != 0 {
		t.Fatalf("ring not drained: %d left", r.len())
	}
	for i, slot := range r.buf {
		if slot != nil {
			t.Fatalf("slot %d still pins %s after the ring drained", i, slot.id)
		}
	}
}

// TestFleetValidationOutsideLock pins complete's lock scope: the
// canonical-bytes check of one report (a full decode and re-encode,
// milliseconds at mnist size) runs with fl.mu released, so a poll,
// status read and lease sweep all go through while it is held open; and
// a report whose task the sweep took back meanwhile is answered like
// any stale report — not accepted, nothing resolved, the task still
// queued for the next poll.
func TestFleetValidationOutsideLock(t *testing.T) {
	fl := newFleet(time.Minute)
	entered, release := make(chan struct{}, 2), make(chan struct{})
	fl.canonical = func(raw json.RawMessage) (json.RawMessage, bool) {
		entered <- struct{}{}
		<-release
		return scenario.CanonicalResult(raw)
	}
	slow, other := fl.join(2), fl.join(1)
	for seed := uint64(1); seed <= 3; seed++ {
		if _, ok := fl.enqueue(fleetSpec(seed), defaultTenant, 0); !ok {
			t.Fatal("enqueue refused with live workers")
		}
	}
	held, _ := fl.tryAssign(slow.WorkerID, slow.Token, 2)
	if len(held) != 2 {
		t.Fatalf("assigned %d tasks, want 2", len(held))
	}
	payload, err := json.Marshal(&distsgd.Result{FinalParams: []float64{1, 2}, FinalTestAccuracy: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(append([]byte(" "), payload...), '\n')

	accepted := make(chan bool, 2)
	for _, task := range held {
		go func() {
			ok, _ := fl.complete(slow.WorkerID, slow.Token, task.id, padded, "")
			accepted <- ok
		}()
		<-entered
	}

	// Both validations are in progress. Everything else that takes fl.mu
	// must still be served.
	unblocked := make(chan []*fleetTask, 1)
	go func() {
		fl.status()
		fl.heartbeat(other.WorkerID, other.Token, nil)
		got, _ := fl.tryAssign(other.WorkerID, other.Token, 1)
		unblocked <- got
	}()
	select {
	case got := <-unblocked:
		if len(got) != 1 {
			t.Fatalf("concurrent poll got %d tasks, want 1", len(got))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a poll waited behind a result validation: fl.mu is held across the check")
	}

	// Take held[1] back the way a task-deadline sweep does, while its
	// report is still being validated.
	fl.mu.Lock()
	held[1].deadline = time.Now().Add(-time.Second)
	fl.mu.Unlock()
	fl.sweep(time.Now())
	close(release)
	if a, b := <-accepted, <-accepted; a == b {
		t.Fatalf("reports accepted: %v and %v, want exactly the one whose task was still assigned", a, b)
	}

	select {
	case <-held[0].done:
	default:
		t.Fatal("the accepted report did not resolve its task")
	}
	if held[0].err != nil || string(held[0].raw) != string(payload) {
		t.Fatalf("resolved with err=%v raw=%q, want the report's canonical bytes %q", held[0].err, held[0].raw, payload)
	}
	select {
	case <-held[1].done:
		t.Fatal("the stale report resolved a task that had been requeued")
	default:
	}
	if st := fl.status(); st.Queued != 1 || st.Tenants[0].Requeues != 1 {
		t.Fatalf("after the sweep: %d queued, %d requeues; want the swept task queued once", st.Queued, st.Tenants[0].Requeues)
	}
}
