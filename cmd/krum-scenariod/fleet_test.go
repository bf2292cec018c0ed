package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
