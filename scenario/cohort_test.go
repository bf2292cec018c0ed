package scenario_test

// The Runner's cohorts (cells that share a sample stream run round by
// round together, each batch drawn once) against per-cell execution:
// every cell's bytes, at every worker count and GOMAXPROCS, in either
// cell order, and the store and duplicate rules around them.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"krum/distsgd"
	"krum/internal/core"
	"krum/scenario"
	"krum/scenario/store"
)

// cohortCells is one matrix of every kind of member a cohort meets:
// rules × attacks × two seeds on one stream per seed, a cell with other
// N and F but the same n − f, one that never evaluates, one with fewer
// rounds, one that diverges (average under omniscient, on a regression
// stream where it does so by round 6) beside one that does not, the bernoulli +
// incremental cell that runs alone, a class-dealing workload, a
// stream whose first cell never evaluates and whose others evaluate on
// 64, 128 and the default 512 samples, and a duplicated spec under
// another name.
func cohortCells() []scenario.Spec {
	base := scenario.Spec{
		Workload:       "gmm(k=3,dim=6,radius=4,sigma=0.5)",
		Schedule:       "const(gamma=0.1)",
		N:              9,
		F:              2,
		Rounds:         12,
		BatchSize:      8,
		EvalEvery:      4,
		EvalBatch:      64,
		TrackSelection: true,
	}
	cells := scenario.Matrix{
		Base:    base,
		Rules:   []string{"krum", "average", "multikrum(m=5)", "coordmedian"},
		Attacks: []string{"none", "gaussian(sigma=200)", "signflip"},
		Seeds:   []uint64{1, 2},
	}.Cells()
	wider := base
	wider.Rule, wider.N, wider.F, wider.Seed = "krum", 10, 3, 1
	blind := base
	blind.Rule, blind.EvalEvery, blind.Seed = "krum", 0, 1
	short := base
	short.Rule, short.Rounds, short.Seed = "multikrum(m=5)", 5, 2
	diverges := base
	diverges.Workload, diverges.Rule, diverges.Attack, diverges.Seed = "regression", "average", "omniscient(scale=1e50)", 1
	steady := diverges
	steady.Rule = "krum"
	async := base
	async.Rule, async.Attack, async.Seed = "krum", "gaussian(sigma=200)", 1
	async.Arrival, async.Incremental = "bernoulli(p=0.5,tau=4)", true
	dealt := base
	dealt.Workload, dealt.Rule, dealt.Seed = "partition(base=gmm(k=3,dim=6))", "krum", 1
	dealt2 := dealt
	dealt2.Rule = "average"
	var evals []scenario.Spec
	for i, b := range []int{64, 64, 128, 0} {
		e := base
		e.Rule, e.Seed, e.EvalBatch = "krum", 3, b
		if i == 0 {
			e.EvalEvery = 0
		}
		evals = append(evals, e)
	}
	evals[2].Rule = "average"
	dup := cells[3]
	dup.Name = "the same cell again"
	cells = append(cells, wider, blind, short, diverges, steady, async, dealt, dealt2)
	return append(append(cells, evals...), dup)
}

// cellBytes is a cell's stable encoding, or its error's text.
func cellBytes(res *distsgd.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return string(res.AppendJSON(nil))
}

// computed returns every cell's bytes computed on its own.
func computed(t *testing.T, cells []scenario.Spec) []string {
	t.Helper()
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = cellBytes(scenario.ComputeCell(c))
	}
	return out
}

// TestCohortsMatchComputeCell: through the Runner, at 1–4 workers and
// GOMAXPROCS 1–4, in matrix order and reversed, every cell's bytes
// equal its own ComputeCell's.
func TestCohortsMatchComputeCell(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cells := cohortCells()
	want := computed(t, cells)
	if !slices.ContainsFunc(want, func(b string) bool { return strings.Contains(b, `"diverged":true`) }) {
		t.Fatal("no cell diverges: the matrix lost a member kind")
	}
	reversed := slices.Clone(cells)
	slices.Reverse(reversed)
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		for workers := 1; workers <= 4; workers++ {
			for _, order := range []struct {
				name  string
				cells []scenario.Spec
				at    func(int) int
			}{
				{"forward", cells, func(i int) int { return i }},
				{"reversed", reversed, func(i int) int { return len(cells) - 1 - i }},
			} {
				results, err := (&scenario.Runner{Workers: workers}).RunCells(order.cells)
				if err != nil {
					t.Fatal(err)
				}
				for i, cr := range results {
					if got := cellBytes(cr.Result, cr.Err); got != want[order.at(i)] {
						t.Errorf("GOMAXPROCS %d, %d workers, %s: cell %d (%s) differs from ComputeCell",
							procs, workers, order.name, i, cr.Spec.Label())
					}
				}
			}
		}
	}
}

// TestCohortFailuresStayTheirs: a member that fails to resolve fails
// alone, with ComputeCell's error, and its cohort runs on.
func TestCohortFailuresStayTheirs(t *testing.T) {
	cells := cohortCells()[:4]
	bad := cells[1]
	bad.Rule = "no-such-rule"
	cells = append(cells, bad)
	want := computed(t, cells)
	results, err := (&scenario.Runner{Workers: 2}).RunCells(cells)
	if err == nil || !strings.Contains(err.Error(), "cell 4") {
		t.Fatalf("aggregate error = %v, want cell 4's", err)
	}
	for i, cr := range results {
		if got := cellBytes(cr.Result, cr.Err); got != want[i] {
			t.Errorf("cell %d: %q, want %q", i, got, want[i])
		}
	}
}

// TestCohortReportsEachCellAsItEnds: a cohort's cell is saved and
// reported to OnCell as it ends, not when its cohort does — the short
// cell first, already saved while its longer cohort mates are not.
func TestCohortReportsEachCellAsItEnds(t *testing.T) {
	long := cohortCells()[0]
	long.Rounds = 30
	short := long
	short.Rule, short.Rounds = "average", 2
	third := long
	third.Rule = "coordmedian"
	cells := []scenario.Spec{long, short, third}
	for workers := 1; workers <= 2; workers++ {
		st := newCountingStore()
		var order, saved []int
		r := &scenario.Runner{Workers: workers, Store: st, OnCell: func(cr scenario.CellResult) {
			st.mu.Lock()
			defer st.mu.Unlock()
			order, saved = append(order, cr.Index), append(saved, len(st.held))
		}}
		if _, err := r.RunCells(cells); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, []int{1, 0, 2}) || !slices.Equal(saved, []int{1, 2, 3}) {
			t.Errorf("%d workers: cells reported in order %v with %v saved, want [1 0 2] with [1 2 3]", workers, order, saved)
		}
	}
}

// rendezvousStore holds every Save until want of them have arrived,
// or fails the test after a minute.
type rendezvousStore struct {
	t       *testing.T
	arrived sync.WaitGroup
}

func (*rendezvousStore) Lookup(scenario.Spec) (*distsgd.Result, bool) { return nil, false }

func (s *rendezvousStore) Save(scenario.Spec, *distsgd.Result) error {
	s.arrived.Done()
	all := make(chan struct{})
	go func() {
		s.arrived.Wait()
		close(all)
	}()
	select {
	case <-all:
	case <-time.After(time.Minute):
		s.t.Error("a cell's save waited a minute for the other cell's: the cells did not run side by side")
	}
	return nil
}

// TestCohortsOfOneRunSideBySide: two cells on two streams, each worth
// two goroutines, still run at once on a two-slot Runner — a cohort of
// one claims one slot — so neither can end before the other has: each
// cell's save waits for both to arrive.
func TestCohortsOfOneRunSideBySide(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cell := scenario.Spec{
		Workload:  "mnist(size=16,hidden=48)",
		Rule:      "krum",
		Schedule:  "const(gamma=0.1)",
		N:         20,
		F:         6,
		Rounds:    1,
		BatchSize: 16,
		Seed:      1,
	}
	other := cell
	other.Seed = 2
	cfg, err := cell.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if w := distsgd.CohortWidth(2, []distsgd.Config{cfg}); w != 2 {
		t.Fatalf("the cell is worth %d goroutines on two slots, want 2", w)
	}
	st := &rendezvousStore{t: t}
	st.arrived.Add(2)
	if _, err := (&scenario.Runner{Workers: 2, Store: st}).RunCells([]scenario.Spec{cell, other}); err != nil {
		t.Fatal(err)
	}
}

// countingStore is a plain ResultStore over a map that counts saves
// per spec and looks up only what it was given.
type countingStore struct {
	mu    sync.Mutex
	saved map[string]int
	held  map[string][]byte
}

func newCountingStore() *countingStore {
	return &countingStore{saved: map[string]int{}, held: map[string][]byte{}}
}

func storeID(s scenario.Spec) string {
	s.Name = ""
	return fmt.Sprintf("%+v", s)
}

func (s *countingStore) Lookup(spec scenario.Spec) (*distsgd.Result, bool) {
	s.mu.Lock()
	raw, ok := s.held[storeID(spec)]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	res := new(distsgd.Result)
	return res, res.UnmarshalJSON(raw) == nil
}

func (s *countingStore) Save(spec scenario.Spec, res *distsgd.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saved[storeID(spec)]++
	s.held[storeID(spec)] = res.AppendJSON(nil)
	return nil
}

// TestCohortStoreHitsAndDuplicates: store hits are answered before
// cohorts form (served, no distance work, never saved again), and a
// spec duplicated under another name computes and saves once, its
// copy served from the same bytes.
func TestCohortStoreHitsAndDuplicates(t *testing.T) {
	cells := cohortCells()
	want := computed(t, cells)
	st := newCountingStore()
	warm := []int{0, 5, len(cells) - 2}
	for _, i := range warm {
		res, err := scenario.ComputeCell(cells[i])
		if err != nil {
			t.Fatal(err)
		}
		st.held[storeID(cells[i])] = res.AppendJSON(nil)
	}
	results, err := (&scenario.Runner{Workers: 2, Store: st}).RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	dup, orig := len(cells)-1, 3
	for i, cr := range results {
		if got := cellBytes(cr.Result, cr.Err); got != want[i] {
			t.Errorf("cell %d (%s) differs from ComputeCell", i, cr.Spec.Label())
		}
		hit := slices.Contains(warm, i)
		switch {
		case hit && (!cr.Cached || cr.Result.Stats != core.CacheStats{}):
			t.Errorf("cell %d: cached=%v stats=%+v, want a store hit with no distance work", i, cr.Cached, cr.Result.Stats)
		case i == dup && !cr.Cached:
			t.Errorf("duplicate cell %d computed again", i)
		case !hit && i != dup && cr.Cached:
			t.Errorf("cell %d: served as cached, want computed", i)
		}
		if n := st.saved[storeID(cr.Spec)]; hit && n != 0 || !hit && n != 1 {
			t.Errorf("cell %d saved %d times, want %d", i, n, map[bool]int{true: 0, false: 1}[hit])
		}
	}
	if results[dup].Result == results[orig].Result {
		t.Error("the duplicate shares its original's *Result")
	}
}

// TestCohortStoreErrorsSurface: a failed write-through of a cohort's
// member is its StoreErr, and the computed result stays.
func TestCohortStoreErrorsSurface(t *testing.T) {
	cells := cohortCells()[:6]
	results, err := (&scenario.Runner{Workers: 2, Store: failingSaveStore{}}).RunCells(cells)
	if err == nil || !strings.Contains(err.Error(), "storing result") {
		t.Fatalf("aggregate error = %v, want the write-through failures", err)
	}
	for i, cr := range results {
		if cr.Err != nil || cr.Result == nil || cr.StoreErr == nil {
			t.Errorf("cell %d: err=%v result=%v storeErr=%v, want a result and a StoreErr", i, cr.Err, cr.Result != nil, cr.StoreErr)
		}
	}
}

// TestCohortRunnersShareOneStore: two Runners over one single-flight
// store, with overlapping matrices, both finish, with every cell's
// bytes.
func TestCohortRunnersShareOneStore(t *testing.T) {
	cells := cohortCells()
	want := computed(t, cells)
	st := store.NewMemory()
	parts := [][]int{{}, {}}
	for i := range cells {
		parts[0] = append(parts[0], i)
		if i%3 != 0 {
			parts[1] = append(parts[1], len(cells)-1-i)
		}
	}
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := make([]scenario.Spec, len(part))
			for j, i := range part {
				specs[j] = cells[i]
			}
			results, err := (&scenario.Runner{Workers: 2, Store: st}).RunCells(specs)
			if err != nil {
				t.Error(err)
				return
			}
			for j, cr := range results {
				if got := cellBytes(cr.Result, cr.Err); got != want[part[j]] {
					t.Errorf("cell %d (%s) differs from ComputeCell", part[j], cr.Spec.Label())
				}
			}
		}()
	}
	wg.Wait()
	if n := st.Stats().Entries; n != len(cells)-1 {
		t.Errorf("store holds %d entries, want the %d distinct cells", n, len(cells)-1)
	}
}
