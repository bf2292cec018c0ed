package main

// Scheduler coverage. TestScheduleHoldsAtSmallPool drives the whole
// coordinator at the benchmark's pool width (Workers: 2), with and
// without a fleet, and reads the order cells start and complete from
// the store every cell passes through — no status polling, no clocks.
// The two unit tests below it grant slots straight from the scheduler
// without completing anything, so the tenants' held-slot balance is
// exactly what fair share equalizes.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"krum/scenario"
	"krum/scenario/store"
)

// gatedStore is a memory store that logs the seed of every cell as it
// enters DoCellRaw (a start: the cell holds a pool slot) and as it
// leaves (a completion), and parks each cell on a gate of its own
// until the test releases it. With every slot's cell parked, no slot
// is in the scheduler: the test decides when the next pick happens,
// and what state it sees.
type gatedStore struct {
	*store.Store

	mu                  sync.Mutex
	gates               []chan struct{} // gates[i] parks the i-th started cell
	opened              int             // gates[:opened] are open
	all                 bool            // every gate, present and future, is open
	changed             chan struct{}   // closed at the next start or completion
	starts, completions []uint64
}

func newGatedStore() *gatedStore {
	return &gatedStore{Store: store.NewMemory(), changed: make(chan struct{})}
}

func (g *gatedStore) DoCellRaw(cell scenario.Spec, compute func() (json.RawMessage, error)) (json.RawMessage, bool, error, error) {
	gate := make(chan struct{})
	g.mu.Lock()
	if g.all {
		close(gate)
	}
	g.gates = append(g.gates, gate)
	g.starts = append(g.starts, cell.Seed)
	g.wakeLocked()
	g.mu.Unlock()
	<-gate
	raw, cached, storeErr, err := g.Store.DoCellRaw(cell, compute)
	g.mu.Lock()
	g.completions = append(g.completions, cell.Seed)
	g.wakeLocked()
	g.mu.Unlock()
	return raw, cached, storeErr, err
}

func (g *gatedStore) wakeLocked() {
	close(g.changed)
	g.changed = make(chan struct{})
}

// releaseOldest opens the gate of the earliest-started parked cell.
func (g *gatedStore) releaseOldest(t *testing.T) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.opened == len(g.gates) {
		t.Fatal("no parked cell to release")
	}
	if !g.all {
		close(g.gates[g.opened])
	}
	g.opened++
}

// openAll opens every gate, present and future, so Stop never waits
// on a parked cell.
func (g *gatedStore) openAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.all {
		for _, gate := range g.gates[g.opened:] {
			close(gate)
		}
		g.all = true
	}
}

// await blocks until exactly starts cells have started and completions
// completed; more of either is a scheduler that ran a cell it was not
// asked to.
func (g *gatedStore) await(t *testing.T, starts, completions int) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		g.mu.Lock()
		s, c, changed := len(g.starts), len(g.completions), g.changed
		g.mu.Unlock()
		if s > starts || c > completions {
			t.Fatalf("%d starts and %d completions, want %d and %d", s, c, starts, completions)
		}
		if s == starts && c == completions {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("stuck at %d starts and %d completions, want %d and %d", s, c, starts, completions)
		}
	}
}

// submitTwoCells submits a two-cell matrix (krum and average over
// fleetSpec(seed)) under a tenant envelope and returns its id.
func submitTwoCells(t *testing.T, ts *httptest.Server, seed uint64, tenant string, priority int) string {
	t.Helper()
	blob, err := json.Marshal(scenario.Matrix{Base: fleetSpec(seed), Rules: []string{"krum", "average"}})
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
// pool, not the fleet, is the scarce resource: at Workers: 2, tenant
// a's first two-cell matrix takes both slots, a queues 39 more, tenant
// b 10 behind them, and then a priority-9 two-cell matrix arrives.
// The test keeps both slots' cells parked and releases the
// earliest-started one at a time, waiting for its completion and the
// one start it frees before the next release, so every pick is the
// scheduler's alone and the whole start sequence is fixed: the rush
// matrix's two cells take the first two freed slots, then b (which
// has never held a slot) and a alternate, each cycling through its
// matrices one cell at a time, until b's 20 cells are out — with no
// fleet and with one 2-slot worker alike.
func TestScheduleHoldsAtSmallPool(t *testing.T) {
	const (
		workers            = 2
		aSeed, bSeed, rush = 1000, 2000, 9000
		aRuns, bRuns       = 40, 10
		cells              = 2 * (aRuns + bRuns + 1)
	)
	// The start sequence the scheduling order implies. Both slots first
	// take a's first matrix.
	want := []uint64{aSeed, aSeed, rush, rush}
	var aNext, bNext []uint64 // each tenant's remaining starts, in turn
	for cell := 0; cell < 2; cell++ {
		for i := uint64(1); i < aRuns; i++ {
			aNext = append(aNext, aSeed+i)
		}
		for i := uint64(0); i < bRuns; i++ {
			bNext = append(bNext, bSeed+i)
		}
	}
	for len(bNext) > 0 {
		want = append(want, bNext[0], aNext[0])
		aNext, bNext = aNext[1:], bNext[1:]
	}
	want = append(want, aNext...)

	for _, tc := range []struct {
		name        string
		workerSlots int
	}{
		{"no fleet", 0},
		{"one 2-slot worker", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newGatedStore()
			srv := NewServer(Options{Workers: workers, Store: st})
			defer srv.Stop()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			defer st.openAll() // a failure must not leave Stop waiting at a gate
			if tc.workerSlots > 0 {
				fleet := startLoadWorkers(t, ts.URL, 1, tc.workerSlots)
				defer fleet.stop()
				waitForFleetSize(t, ts, 1)
			}

			ids := []string{submitTwoCells(t, ts, aSeed, "a", 0)}
			st.await(t, workers, 0)
			for i := uint64(1); i < aRuns; i++ {
				ids = append(ids, submitTwoCells(t, ts, aSeed+i, "a", 0))
			}
			for i := uint64(0); i < bRuns; i++ {
				ids = append(ids, submitTwoCells(t, ts, bSeed+i, "b", 0))
			}
			ids = append(ids, submitTwoCells(t, ts, rush, "rush", 9))
			for done := 1; done <= cells; done++ {
				st.releaseOldest(t)
				st.await(t, min(cells, done+workers), done)
			}
			for _, id := range ids {
				if status := waitFinished(t, ts, id); status.Failed != 0 {
					t.Fatalf("matrix %s failed %d cells", id, status.Failed)
				}
			}

			if tc.workerSlots > 0 {
				fs, dispatches := srv.fleet.status(), 0
				for _, ten := range fs.Tenants {
					dispatches += ten.Dispatches
				}
				if dispatches < cells || fs.LocalFallbacks != 0 {
					t.Errorf("%d dispatches and %d local fallbacks, want every one of the %d cells on the worker", dispatches, fs.LocalFallbacks, cells)
				}
			}
			st.mu.Lock()
			defer st.mu.Unlock()
			if !slices.Equal(st.starts, want) {
				t.Errorf("start sequence\n%v\nwant\n%v", st.starts, want)
			}
			if !slices.Equal(st.completions, st.starts) {
				t.Errorf("completion sequence\n%v\ndiffers from the start sequence\n%v", st.completions, st.starts)
			}
			// The backlog cells that completed before the rush matrix's
			// last cell are the ones that overtook it.
			overtook, rushLeft := 0, 2
			for _, seed := range st.completions {
				if seed == rush {
					rushLeft--
				} else if rushLeft > 0 {
					overtook++
				}
			}
			if overtook > workers {
				t.Errorf("%d backlog cells completed between the priority-9 submission and its last cell, want at most the %d parked when it arrived", overtook, workers)
			}
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
