package distsgd

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"krum"
	"krum/attack"
	"krum/data"
	"krum/internal/vec"
)

// cohortConfigs returns members of one stream, built on base's Model
// and Dataset: rules and attacks by value and by spec, other N and F
// with the same n − f, one that never evaluates, one with fewer rounds,
// one that diverges and one whose rule does not resolve.
func cohortConfigs(base Config) []Config {
	with := func(mut func(*Config)) Config {
		c := base
		mut(&c)
		return c
	}
	return []Config{
		base,
		with(func(c *Config) { c.Rule, c.RuleSpec, c.AttackSpec = nil, "multikrum(m=5)", "gaussian(sigma=200)" }),
		with(func(c *Config) { c.Rule, c.Attack = krum.Average{}, attack.SignFlip{} }),
		with(func(c *Config) { c.N, c.F, c.Rule = c.N+1, c.F+1, krum.NewKrum(3) }),
		with(func(c *Config) { c.EvalEvery, c.TrackSelection = 0, true }),
		with(func(c *Config) { c.Rounds = 3 }),
		with(func(c *Config) { c.Rule, c.Attack = krum.Average{}, lateNaN{after: 4} }),
		with(func(c *Config) { c.Rule, c.RuleSpec = nil, "no-such-rule" }),
	}
}

// lateNaN proposes correct gradients until round after, then NaN.
type lateNaN struct{ after int }

func (lateNaN) Name() string { return "latenan" }

func (a lateNaN) Propose(ctx *attack.Context) [][]float64 {
	if ctx.Round >= a.after {
		return nanAttack{}.Propose(ctx)
	}
	return attack.None{}.Propose(ctx)
}

// cohortBase is quickConfig cut to a few rounds.
func cohortBase(t *testing.T) Config {
	cfg := quickConfig(t)
	cfg.Rounds, cfg.EvalEvery = 8, 3
	return cfg
}

// runCohort runs cfgs as one cohort on width goroutines and returns
// each member's Result and error, and the member indices in the order
// RunCohort handed them over.
func runCohort(cfgs []Config, width int) ([]*Result, []error, []int) {
	res, errs := make([]*Result, len(cfgs)), make([]error, len(cfgs))
	var order []int
	RunCohort(cfgs, width, func(i int, r *Result, err error) {
		res[i], errs[i] = r, err
		order = append(order, i)
	})
	return res, errs, order
}

// outcome is a run's stable bytes, or its error's text.
func outcome(t *testing.T, res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return string(stableBytes(t, res))
}

// TestRunCohortMatchesRun: every member of a cohort, at every width,
// returns the bytes or the error Run returns for it alone — the
// diverging member and the one with fewer rounds drop out, the one
// that does not resolve fails alone — and is handed over as it ends:
// the failing member first, then the 3-round one, the diverging one,
// and the rest in member order.
func TestRunCohortMatchesRun(t *testing.T) {
	cfgs := cohortConfigs(cohortBase(t))
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		want[i] = outcome(t, res, err)
	}
	if !strings.Contains(want[6], `"diverged_round":4`) || !strings.HasPrefix(want[7], "error: ") {
		t.Fatal("the diverging or the failing member no longer does: the cohort lost a member kind")
	}
	for width := 1; width <= 4; width++ {
		res, errs, order := runCohort(cfgs, width)
		for i := range cfgs {
			if got := outcome(t, res[i], errs[i]); got != want[i] {
				t.Errorf("width %d, member %d: %.200s, want %.200s", width, i, got, want[i])
			}
		}
		if want := []int{7, 5, 6, 0, 1, 2, 3, 4}; !slices.Equal(order, want) {
			t.Errorf("width %d: members handed over in order %v, want %v", width, order, want)
		}
	}
}

// TestRunCohortRefusesMembersOffItsStream: a member that draws other
// batches (another seed, another n − f) or replays across rounds (an
// asynchronous arrival) fails with ErrConfig, and the rest of the
// cohort runs as it would alone.
func TestRunCohortRefusesMembersOffItsStream(t *testing.T) {
	base := cohortBase(t)
	res, err := Run(base)
	alone := outcome(t, res, err)
	for name, mut := range map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"n − f":   func(c *Config) { c.N++ },
		"batch":   func(c *Config) { c.BatchSize++ },
		"dataset": func(c *Config) { c.WorkerData = sameData(c.Dataset, c.N-c.F) },
		"arrival": func(c *Config) { c.ArrivalSpec = "bounded(tau=2)" },
	} {
		off := base
		mut(&off)
		res, errs, _ := runCohort([]Config{base, off}, 2)
		if !errors.Is(errs[1], ErrConfig) || res[1] != nil {
			t.Errorf("%s: member error %v, want ErrConfig", name, errs[1])
		}
		if got := outcome(t, res[0], errs[0]); got != alone {
			t.Errorf("%s: the remaining member's bytes differ from its own run", name)
		}
	}
}

// TestCohortEvaluatesEachMemberOnItsOwnBatch: members that evaluate on
// different eval batch sizes — behind a lead that never evaluates —
// share one cohort, and each returns the bytes it returns alone.
func TestCohortEvaluatesEachMemberOnItsOwnBatch(t *testing.T) {
	base := cohortBase(t)
	var cfgs []Config
	for _, ev := range []struct{ every, batch int }{{0, 0}, {3, 64}, {2, 128}, {3, 0}, {1, 64}} {
		c := base
		c.EvalEvery, c.EvalBatch = ev.every, ev.batch
		cfgs = append(cfgs, c)
	}
	for width := 1; width <= 3; width++ {
		res, errs, _ := runCohort(cfgs, width)
		for i, cfg := range cfgs {
			alone, err := Run(cfg)
			if got, want := outcome(t, res[i], errs[i]), outcome(t, alone, err); got != want {
				t.Errorf("width %d, member %d (eval every %d on %d): %.200s, want %.200s",
					width, i, cfg.EvalEvery, cfg.EvalBatch, got, want)
			}
		}
	}
}

// countingData is a dataset without a batch path that counts its draws.
type countingData struct {
	data.Dataset
	draws *atomic.Int64
}

func (d countingData) Sample(rng *vec.RNG, x, y []float64) {
	d.draws.Add(1)
	d.Dataset.Sample(rng, x, y)
}

// TestCohortDrawsOneCellsSamples: a cohort of k cells draws exactly
// one cell's samples — (n − f)·batch per round of its longest member,
// plus the eval batch — at any width, and a second eval batch size
// costs its own samples and no more.
func TestCohortDrawsOneCellsSamples(t *testing.T) {
	base := cohortBase(t)
	var draws atomic.Int64
	base.Dataset = countingData{base.Dataset, &draws}
	one := int64((base.N-base.F)*base.BatchSize*base.Rounds + base.EvalBatch)
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}
	if got := draws.Swap(0); got != one {
		t.Fatalf("one cell drew %d samples, want %d", got, one)
	}
	cfgs := cohortConfigs(base)[:6]
	for width := 1; width <= 3; width++ {
		_, errs, _ := runCohort(cfgs, width)
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if got := draws.Swap(0); got != one {
			t.Errorf("width %d: a %d-cell cohort drew %d samples, want one cell's %d", width, len(cfgs), got, one)
		}
	}
	other := base
	other.EvalBatch = 2 * base.EvalBatch
	if _, errs, _ := runCohort([]Config{base, other, base}, 2); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	if got, want := draws.Swap(0), one+int64(other.EvalBatch); got != want {
		t.Errorf("a cohort on two eval sizes drew %d samples, want %d", got, want)
	}
}

// TestCohortScratchPerSlot: a cohort of k members on width w builds
// min(w, k) slots of w / min(w, k) lanes — not one scratch set per
// member — and an extra member costs its own parameters and little
// more: at most 2·d·8 bytes plus a fixed allowance, where a scratch set
// holds n − f + f + 1 vectors of d.
func TestCohortScratchPerSlot(t *testing.T) {
	log := newProbeLog()
	ds, err := data.NewGaussianMixture(3, 6, 4, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const d = 12_826
	base := Config{
		Model:        &laneProbe{params: make([]float64, d), log: log},
		Dataset:      ds,
		RuleSpec:     "average",
		AttackSpec:   "gaussian(sigma=1)",
		ScheduleSpec: "const(gamma=0.1)",
		N:            9,
		F:            2,
		BatchSize:    8,
		Rounds:       3,
		Seed:         5,
	}
	cohortOf := func(k int) []Config {
		cfgs := make([]Config, k)
		for i := range cfgs {
			cfgs[i] = base
		}
		return cfgs
	}
	for _, c := range []struct{ k, width, slots, lanes int }{
		{1, 1, 1, 1}, {1, 3, 1, 3}, {6, 1, 1, 1}, {6, 2, 2, 1}, {2, 4, 2, 2}, {3, 4, 3, 1},
	} {
		co := newCohort(cohortOf(c.k))
		co.run(c.width, func(int, *Result, error) {})
		if len(co.slots) != c.slots || len(co.slots[0].lanes) != c.lanes {
			t.Errorf("k=%d width=%d: %d slots of %d lanes, want %d of %d",
				c.k, c.width, len(co.slots), len(co.slots[0].lanes), c.slots, c.lanes)
		}
	}
	if raceDetectorEnabled {
		return // sync.Pool drops values at random under -race
	}
	allocated := func(k int) uint64 {
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, errs, _ := runCohort(cohortOf(k), 1); errors.Join(errs...) != nil {
				t.Fatal(errors.Join(errs...))
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := allocated(2), allocated(6)
	perMember := (int64(large) - int64(small)) / 4
	t.Logf("%d bytes per extra member, d = %d", perMember, d)
	if limit := int64(2*d*8 + 32<<10); perMember > limit {
		t.Errorf("an extra member allocates %d bytes, want ≤ %d", perMember, limit)
	}
}
