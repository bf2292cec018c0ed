package main

// Scheduler coverage. TestScheduleHoldsAtSmallPool drives the whole
// coordinator at the benchmark's pool width (Workers: 2), with and
// without a fleet, and reads the order cells start and complete from
// the store every cell passes through — no status polling. The two
// unit tests below it grant slots straight from the scheduler without
// completing anything, so the tenants' held-slot balance is exactly
// what fair share equalizes.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"krum/scenario"
	"krum/scenario/store"
)

// gatedStore is a memory store that logs the seed of every cell as it
// enters DoCellRaw (a start: the cell holds a pool slot) and as it
// leaves (a completion), and holds each cell at gate until the test
// opens it: every pick after the first Workers is then made with the
// whole backlog registered, whatever the host's speed.
type gatedStore struct {
	*store.Store
	gate chan struct{}

	mu                  sync.Mutex
	starts, completions []uint64
}

func (g *gatedStore) DoCellRaw(cell scenario.Spec, compute func() (json.RawMessage, error)) (json.RawMessage, bool, error, error) {
	g.mu.Lock()
	g.starts = append(g.starts, cell.Seed)
	g.mu.Unlock()
	<-g.gate
	raw, cached, storeErr, err := g.Store.DoCellRaw(cell, compute)
	g.mu.Lock()
	g.completions = append(g.completions, cell.Seed)
	g.mu.Unlock()
	return raw, cached, storeErr, err
}

// submitTwoCells submits a two-cell matrix (krum and average over
// fleetSpec(seed), lengthened) under a tenant envelope and returns its
// id. The rounds make a cell several milliseconds of compute, so a
// host hiccup of a millisecond or two cannot hand one tenant a run of
// starts while the other's cell is held up; the race detector's
// slowdown already does that at a quarter of the rounds.
func submitTwoCells(t *testing.T, ts *httptest.Server, seed uint64, tenant string, priority int) string {
	t.Helper()
	base := fleetSpec(seed)
	base.Rounds = 600
	if raceDetectorEnabled {
		base.Rounds = 150
	}
	blob, err := json.Marshal(scenario.Matrix{Base: base, Rules: []string{"krum", "average"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postMatrix(t, ts, withTenant(t, string(blob), tenant, priority))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s submit: status %d: %s", tenant, resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// TestScheduleHoldsAtSmallPool pins priority and fair share where the
// pool, not the fleet, is the scarce resource: at Workers: 2, tenant a
// queues 40 two-cell matrices, tenant b 10 behind them, and then a
// priority-9 two-cell matrix arrives. The rush matrix must finish with
// at most 2·Workers backlog cells completing between its submission
// and its last cell, and tenant a may take only 40–60 % of the first
// 30 backlog starts — with no fleet and with one 2-slot worker alike.
func TestScheduleHoldsAtSmallPool(t *testing.T) {
	const (
		workers            = 2
		aSeed, bSeed, rush = 1000, 2000, 9000
	)
	for _, tc := range []struct {
		name        string
		workerSlots int
	}{
		{"no fleet", 0},
		{"one 2-slot worker", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &gatedStore{Store: store.NewMemory(), gate: make(chan struct{})}
			srv := NewServer(Options{Workers: workers, Store: st})
			defer srv.Stop()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			open := sync.OnceFunc(func() { close(st.gate) })
			defer open() // a failed submission must not leave Stop waiting at the gate
			if tc.workerSlots > 0 {
				fleet := startLoadWorkers(t, ts.URL, 1, tc.workerSlots)
				defer fleet.stop()
				waitForFleetSize(t, ts, 1)
			}

			var ids []string
			for i := uint64(0); i < 40; i++ {
				ids = append(ids, submitTwoCells(t, ts, aSeed+i, "a", 0))
			}
			for i := uint64(0); i < 10; i++ {
				ids = append(ids, submitTwoCells(t, ts, bSeed+i, "b", 0))
			}
			ids = append(ids, submitTwoCells(t, ts, rush, "rush", 9))
			open()
			for _, id := range ids {
				if status := waitFinished(t, ts, id); status.Failed != 0 {
					t.Fatalf("matrix %s failed %d cells", id, status.Failed)
				}
			}

			st.mu.Lock()
			defer st.mu.Unlock()
			// Every completion happened after the rush submission (the gate
			// opened after it), so the backlog cells that completed before
			// the rush matrix's last cell are the ones that overtook it.
			overtook, rushLeft := 0, 2
			for _, seed := range st.completions {
				if seed == rush {
					rushLeft--
				} else if rushLeft > 0 {
					overtook++
				}
			}
			if overtook > 2*workers {
				t.Errorf("%d backlog cells completed between the priority-9 submission and its last cell, want at most %d", overtook, 2*workers)
			}

			aStarts, backlogStarts := 0, 0
			for _, seed := range st.starts {
				if seed == rush || backlogStarts == 30 {
					continue
				}
				backlogStarts++
				if seed < bSeed {
					aStarts++
				}
			}
			if share := float64(aStarts) / 30; share < 0.4 || share > 0.6 {
				t.Errorf("tenant a took %d of the first 30 backlog starts (%.0f %%), want 40–60 %%", aStarts, 100*share)
			}
			t.Logf("backlog completions before the rush finished: %d; tenant a's first-30 starts: %d", overtook, aStarts)
		})
	}
}

// scheduleRun builds a registered-but-never-executed run of n cells.
func scheduleRun(id, tenant string, priority, n int) *matrixRun {
	return &matrixRun{id: id, cells: make([]scenario.Spec, n), tenant: tenant, priority: priority}
}

// poolless builds a Server with no slot goroutines, so its scheduler
// grants slots only when a test asks.
func poolless() *Server {
	s := &Server{tenants: make(map[string]tenantSlots)}
	s.wake.L = &s.mu
	return s
}

// grant takes n slots from the scheduler without handing any back and
// returns the runs they went to.
func grant(t *testing.T, s *Server, n int) []*matrixRun {
	t.Helper()
	var got []*matrixRun
	for i := 0; i < n; i++ {
		run, _ := s.next(nil)
		if run == nil {
			t.Fatalf("grant %d: scheduler stopped", i)
		}
		got = append(got, run)
	}
	return got
}

// TestScheduleFairShareDispatch pins the fair-share invariant: two
// equal-priority tenants with queued backlogs alternate slot grants,
// so each holds half the pool regardless of backlog depth — and within
// one tenant, its live matrices take turns one cell each.
func TestScheduleFairShareDispatch(t *testing.T) {
	s := poolless()
	// Lopsided backlogs: tenant a queues 3x what tenant b does.
	for _, run := range []*matrixRun{
		scheduleRun("m1", "tenant-a", 0, 10),
		scheduleRun("m2", "tenant-a", 0, 10),
		scheduleRun("m3", "tenant-a", 0, 10),
		scheduleRun("m4", "tenant-b", 0, 10),
	} {
		s.schedule(run)
	}
	// Grant 20 slots one at a time without releasing any: held-slot
	// balance is exactly what fair share equalizes.
	counts := map[string]int{}
	var aTurns []string
	for _, run := range grant(t, s, 20) {
		counts[run.tenant]++
		if run.tenant == "tenant-a" {
			aTurns = append(aTurns, run.id)
		}
	}
	if counts["tenant-a"] != 10 || counts["tenant-b"] != 10 {
		t.Fatalf("grants a=%d b=%d, want a perfect 10/10 split under fair share", counts["tenant-a"], counts["tenant-b"])
	}
	if got, want := strings.Join(aTurns, " "), "m1 m2 m3 m1 m2 m3 m1 m2 m3 m1"; got != want {
		t.Fatalf("tenant a's grants went to %s, want its matrices in turn: %s", got, want)
	}
}

// TestSchedulePriorityDispatch pins strict tier precedence: a
// higher-priority tenant's backlog drains completely before any
// lower-priority cell starts, even one queued earlier.
func TestSchedulePriorityDispatch(t *testing.T) {
	s := poolless()
	s.schedule(scheduleRun("m1", "background", 0, 5))
	s.schedule(scheduleRun("m2", "rush", 5, 3))
	var order []string
	for _, run := range grant(t, s, 8) {
		order = append(order, run.tenant)
	}
	want := []string{"rush", "rush", "rush", "background", "background", "background", "background", "background"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("grant order %v, want priority-5 cells strictly first", order)
	}
}
