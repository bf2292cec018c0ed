// Cohorts: cells that share a sample stream, stepped round by round
// together. A correct worker's batches depend only on the Model,
// Dataset and WorkerData values, the Seed, N − F and BatchSize (the
// worker substreams split from the seed, and only the batch draw reads
// them), so a cohort draws each round's n − f batches once and lends
// them read-only to every member. An eval batch depends on the same
// values and its size alone, so the cohort draws one per size its
// members evaluate on. The rule,
// attack, schedule, N and F, rounds and TrackSelection may differ from
// member to member; each member derives its own attack RNG and keeps
// its own parameters, engine, arrival state and history. Run is a
// cohort of one, so this file holds the one round body.
//
// Round scratch belongs to the cohort's goroutines, not to its
// members: s = min(width, members) slots each hold K = width / s model
// replicas, the n − f gradient buffers, the attack Context and the
// update buffer, and step whole members, dealt dynamically each round.
// A member's round runs on one slot from its gradients to its step, and
// its proposals are lent only for that round. The round's draw fans out
// by worker on all width goroutines. A worker's gradient depends on
// the round's parameters and its own batch alone, and losses are summed
// in worker order, so neither width nor dealing moves a bit.
package distsgd

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"krum/attack"
	"krum/data"
	"krum/internal/arrival"
	"krum/internal/core"
	"krum/internal/vec"
	"krum/model"
)

// CohortWidth returns the goroutines a cohort of cfgs is worth on a
// host that runs procs of them at once: vec.Width over its members'
// correct workers, a round's work counted as 3·k·(n − f)·batch·d
// multiply-adds (a forward and a backward pass per worker and member).
// For one member it is the lane count Run computes on; a shape that
// does not validate gets 1.
func CohortWidth(procs int, cfgs []Config) int {
	c := cfgs[0]
	if c.Model == nil {
		return 1
	}
	return cohortWidth(procs, len(cfgs), c.N-c.F, c.BatchSize, c.Model.Dim())
}

// cohortWidth is CohortWidth for k members of nc correct workers of
// batch samples on a d-parameter model.
func cohortWidth(procs, k, nc, batch, d int) int {
	if nc < 1 || batch < 1 {
		return 1
	}
	return vec.Width(procs, k*nc, 3*uint64(k)*uint64(nc)*uint64(batch)*uint64(d))
}

// RunCohort runs every cfgs[i] to its end on width goroutines and, as
// member i ends, calls done(i, res, err) with what Run(cfgs[i])
// returns. The calls come from RunCohort's goroutine between rounds,
// one at a time, in the order the members end (member order within a
// round), and the cohort keeps no reference to a result it handed
// over. The members must share one sample stream: the same Model,
// Dataset and WorkerData values (compared with ==), Seed, N − F and
// BatchSize; their EvalBatch may differ. A member whose ArrivalSpec is
// not synchronous replays proposals across rounds from its slot's
// buffers, so it runs only in a cohort of one. A member that breaks
// either rule, fails to resolve, diverges or ends early drops out; the
// stream keeps drawing for the rest. Members step concurrently, so a
// Rule, Attack, Schedule or OnRound that two of them share must be
// safe for concurrent use.
func RunCohort(cfgs []Config, width int, done func(i int, res *Result, err error)) {
	newCohort(cfgs).run(width, done)
}

// cohort is RunCohort's state: one member per config, and the shared
// stream and the slots that run builds.
type cohort struct {
	members []*member
	stream  *stream
	slots   []*slot
}

// member is one cell of a cohort: its index among the configs, its
// resolved configuration and its cross-round state. Everything a round
// only borrows is a slot's.
type member struct {
	at       int
	cfg      Config
	atkRNG   *vec.RNG
	params   []float64
	engine   *core.Engine
	arrivals asyncState
	res      *Result
	err      error
	done     bool
}

// newCohort resolves every config into a member and checks it shares
// the first valid member's stream.
func newCohort(cfgs []Config) *cohort {
	c := &cohort{members: make([]*member, len(cfgs))}
	var lead *member
	for i, cfg := range cfgs {
		m := &member{at: i, cfg: cfg}
		c.members[i] = m
		proc, err := m.cfg.resolve()
		if err == nil && len(cfgs) > 1 && proc.Name() != "sync" {
			err = fmt.Errorf("arrival %q replays proposals across rounds, so it runs only in a cohort of one: %w", proc.Name(), ErrConfig)
		}
		if err == nil && lead != nil {
			err = lead.cfg.sharesStream(&m.cfg)
		}
		if err != nil {
			m.fail(err)
			continue
		}
		if lead == nil {
			lead = m
		}
		m.setup(proc)
	}
	return c
}

// sharesStream returns nil when o draws the same batches as c, and
// otherwise an ErrConfig.
func (c *Config) sharesStream(o *Config) error {
	same := c.Model == o.Model && c.Dataset == o.Dataset && len(c.WorkerData) == len(o.WorkerData) &&
		c.Seed == o.Seed && c.N-c.F == o.N-o.F && c.BatchSize == o.BatchSize
	for i := range c.WorkerData {
		same = same && c.WorkerData[i] == o.WorkerData[i]
	}
	if !same {
		return fmt.Errorf("member does not share the cohort's sample stream: %w", ErrConfig)
	}
	return nil
}

// setup builds a resolved member's cross-round state. Its attack RNG
// is the root RNG's split after the worker seed and, when the member
// evaluates, the eval batch's split (newStream draws both).
func (m *member) setup(proc arrival.Process) {
	cfg := &m.cfg
	root := vec.NewRNG(cfg.Seed)
	root.Uint64()
	if cfg.EvalEvery > 0 {
		root.Split()
	}
	m.atkRNG = root.Split()
	m.params = cfg.Model.Params(nil)
	// The engine hands out one RoundContext per round so that selection
	// tracking and aggregation share a single distance matrix. With
	// Incremental set it also carries the matrix across rounds. Either
	// way the proposals are only lent to the engine for the round: it
	// reads the workers', the attack's and the replay buffers where they
	// lie, and the cache copies the rows it keeps, so all of them may be
	// rewritten once the round's aggregate is out.
	m.engine = new(core.Engine)
	if cfg.Incremental {
		m.engine.EnableCache()
	}
	// The arrival trace is seeded from cfg.Seed directly (not from a
	// root RNG draw), so the arrival process never shifts the
	// worker/eval/attack RNG streams, and tests can replay the trace.
	m.arrivals = newAsyncState(proc, cfg.Seed, cfg.N)
	m.res = &Result{
		History: make([]RoundStats, 0, cfg.Rounds),
		// NaN until the first evaluation — "never evaluated" is
		// distinguishable from a genuine zero-accuracy result.
		FinalTestAccuracy: math.NaN(),
		FinalTestLoss:     math.NaN(),
		Kernel:            vec.KernelOrder(),
	}
}

// fail ends the member with err.
func (m *member) fail(err error) {
	m.err, m.res, m.done = err, nil, true
}

// run steps the live members round by round on width goroutines until
// each has ended, handing each to done as it ends.
func (c *cohort) run(width int, done func(int, *Result, error)) {
	live := retire(c.members, done)
	c.members = nil
	if len(live) == 0 {
		return
	}
	width = max(1, width)
	lead := live[0].cfg // a copy, so that the first member is not kept past its end
	var evalSizes []int
	for _, m := range live {
		if n := m.cfg.evalBatch(); n > 0 && !slices.Contains(evalSizes, n) {
			evalSizes = append(evalSizes, n)
		}
	}
	buffers := lead.N - lead.F
	if len(live) == 1 {
		// A lone member's batches need not outlive its gradients: it
		// draws each into its lane's own buffer, as a cell always did.
		buffers = min(buffers, width)
	}
	var err error
	if c.stream, err = newStream(&lead, evalSizes, buffers); err != nil {
		for _, m := range live {
			m.fail(err)
		}
		retire(live, done)
		return
	}
	s := min(width, len(live))
	maxN := 0
	for _, m := range live {
		maxN = max(maxN, m.cfg.N)
	}
	c.slots = make([]*slot, s)
	for i := range c.slots {
		c.slots[i] = newSlot(&lead, width/s, maxN)
	}
	defer func() {
		for _, sl := range c.slots {
			vec.PutFloats(sl.update)
		}
	}()
	for t := 0; len(live) > 0; t++ {
		if s == 1 {
			// One slot steps every member in turn, so the first draws
			// each batch on the lane that computes its gradient, as a
			// lone cell does.
			for i, m := range live {
				m.step(t, c.slots[0], c.stream, i == 0)
			}
		} else {
			// A failed draw is the stream's (stream.err), which each
			// member's gradients report.
			_ = fanOut(width, len(c.stream.rngs), c.stream)
			c.step(t, live)
		}
		live = retire(live, done)
	}
}

// retire hands each ended member of live to done, in order, and
// returns the others, compacted in place; the slots it vacates are
// cleared, so nothing of an ended member stays reachable from live.
func retire(live []*member, done func(int, *Result, error)) []*member {
	kept := live[:0]
	for _, m := range live {
		if m.done {
			done(m.at, m.res, m.err)
		} else {
			kept = append(kept, m)
		}
	}
	clear(live[len(kept):])
	return kept
}

// step runs round t of every live member on the round's drawn
// batches, dealt one at a time to whichever of the slots is free:
// slot 0 on the calling goroutine, each other on a goroutine of its
// own.
func (c *cohort) step(t int, live []*member) {
	var next atomic.Int64
	run := func(sl *slot) {
		for j := next.Add(1) - 1; j < int64(len(live)); j = next.Add(1) - 1 {
			live[j].step(t, sl, c.stream, false)
		}
	}
	var wg sync.WaitGroup
	for _, sl := range c.slots[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(sl)
		}()
	}
	run(c.slots[0])
	wg.Wait()
}

// stream is a cohort's sample stream: the correct workers' RNG
// substreams and sample distributions, the round's batches they draw
// into and each draw's error, and an eval batch per size. Every member
// reads the batches and none writes them. Worker i draws into batch i
// mod len(x): one per worker, or one per lane for a lone member.
type stream struct {
	rngs         []*vec.RNG
	ds           []data.Dataset
	x, y         []*vec.Dense
	errs         []error
	evalX, evalY []*vec.Dense
}

// newStream builds cfg's stream on the given number of batch buffers,
// with an eval batch of each of evalSizes samples. The worker
// substreams split from a seed the root RNG draws first; an eval
// batch's RNG is the root's next split, whatever its size.
func newStream(cfg *Config, evalSizes []int, buffers int) (*stream, error) {
	workerRNG := vec.NewRNG(vec.NewRNG(cfg.Seed).Uint64())
	nc := cfg.N - cfg.F
	s := &stream{
		rngs: make([]*vec.RNG, nc),
		ds:   make([]data.Dataset, nc),
		x:    batches(buffers, cfg.BatchSize, cfg.Dataset.Dim()),
		y:    batches(buffers, cfg.BatchSize, cfg.Dataset.OutDim()),
		errs: make([]error, nc),
	}
	for i := range nc {
		s.rngs[i] = workerRNG.Split()
		s.ds[i] = cfg.Dataset
		if cfg.WorkerData != nil {
			s.ds[i] = cfg.WorkerData[i]
		}
	}
	for _, n := range evalSizes {
		// The root RNG past the worker seed: every size draws from the
		// same split.
		root := vec.NewRNG(cfg.Seed)
		root.Uint64()
		x, y, err := data.NewBatch(cfg.Dataset, root.Split(), n)
		if err != nil {
			return nil, fmt.Errorf("building eval batch: %w", err)
		}
		s.evalX, s.evalY = append(s.evalX, x), append(s.evalY, y)
	}
	return s, nil
}

// eval returns the eval batch of n samples.
func (s *stream) eval(n int) (x, y *vec.Dense) {
	for i, x := range s.evalX {
		if x.Rows == n {
			return x, s.evalY[i]
		}
	}
	panic(fmt.Sprintf("distsgd: no eval batch of %d samples", n))
}

// batches returns n rows × cols matrices over one backing array.
func batches(n, rows, cols int) []*vec.Dense {
	backing := make([]float64, n*rows*cols)
	mats := make([]vec.Dense, n)
	out := make([]*vec.Dense, n)
	for i := range out {
		lo := i * rows * cols
		mats[i] = vec.Dense{Rows: rows, Cols: cols, Data: backing[lo : lo+rows*cols : lo+rows*cols]}
		out[i] = &mats[i]
	}
	return out
}

// batch returns worker i's batch.
func (s *stream) batch(i int) (x, y *vec.Dense) {
	return s.x[i%len(s.x)], s.y[i%len(s.y)]
}

// do is the draw pass: worker i's batch for the round, from its own
// substream.
func (s *stream) do(_, i int) error {
	x, y := s.batch(i)
	s.errs[i] = data.FillBatch(s.ds[i], s.rngs[i], x, y)
	return s.errs[i]
}

// err returns the round's failed draw of the lowest worker, naming it.
func (s *stream) err() error {
	for i, err := range s.errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return nil
}

// slot is one stepping goroutine's round scratch: K lanes (model
// replicas; worker i computes on lane i mod K, and lane 0 also
// evaluates), the correct workers' gradient buffers and losses, the
// proposal slice, the attack Context whose vectors the strategies
// reuse, and the update buffer. A member's round borrows all of it and
// returns it once its step is taken.
type slot struct {
	lanes     []model.Model
	grads     [][]float64
	losses    []float64
	proposals [][]float64
	atkCtx    attack.Context
	update    []float64
	// The gradient pass's operands (gradients sets them).
	st     *stream
	params []float64
	draw   bool
}

// newSlot builds a slot of k lanes for members shaped like cfg, n
// workers at most.
func newSlot(cfg *Config, k, n int) *slot {
	d := cfg.Model.Dim()
	nc := cfg.N - cfg.F
	sl := &slot{
		lanes:     make([]model.Model, k),
		grads:     make([][]float64, nc),
		losses:    make([]float64, nc),
		proposals: make([][]float64, n),
		update:    vec.GetFloats(d),
	}
	for i := range sl.lanes {
		sl.lanes[i] = cfg.Model.Clone()
	}
	for i := range sl.grads {
		sl.grads[i] = make([]float64, d)
	}
	return sl
}

// gradients computes round t's correct proposals V_i = G(x_t, ξ_i) at
// params into the slot's gradient buffers, on its lanes — lane 0 on the
// calling goroutine — drawing each worker's batch first when draw is
// set, and otherwise failing as the round's draw did. It returns their
// mean mini-batch loss summed in worker order, or the error of the
// first worker that failed.
func (sl *slot) gradients(st *stream, params []float64, draw bool) (float64, error) {
	if !draw {
		if err := st.err(); err != nil {
			return 0, err
		}
	}
	sl.st, sl.params, sl.draw = st, params, draw
	err := fanOut(len(sl.lanes), len(sl.grads), sl)
	if err != nil {
		return 0, err
	}
	var lossSum float64
	for _, l := range sl.losses {
		lossSum += l
	}
	return lossSum / float64(len(sl.losses)), nil
}

// do is the gradient pass: worker i's gradient on lane k, its batch
// drawn first when the pass draws.
func (sl *slot) do(k, i int) error {
	if sl.draw {
		if err := sl.st.do(k, i); err != nil {
			return err
		}
	}
	m := sl.lanes[k]
	if i == k {
		if err := m.SetParams(sl.params); err != nil {
			return err
		}
	}
	x, y := sl.st.batch(i)
	var err error
	sl.losses[i], err = m.Gradient(sl.grads[i], x, y)
	return err
}

// pass is work on each correct worker i, done by goroutine g of a
// fan-out.
type pass interface {
	do(g, i int) error
}

// fanOut runs p.do(g, i) for every worker i < n on min(width, n)
// goroutines — g = 0 the calling one, each other started for the call
// — goroutine g taking i = g, g + width, … in order, past failures, so
// that every batch a pass draws is drawn. It returns the failure of the
// lowest i, naming the worker.
func fanOut(width, n int, p pass) error {
	width = max(1, min(width, n))
	first := failure{i: n}
	if width == 1 {
		for i := range n {
			if err := p.do(0, i); err != nil && first.err == nil {
				first = failure{i, err}
			}
		}
	} else {
		fails := make([]failure, width)
		run := func(g int) {
			for i := g; i < n; i += width {
				if err := p.do(g, i); err != nil && fails[g].err == nil {
					fails[g] = failure{i, err}
				}
			}
		}
		var wg sync.WaitGroup
		for g := 1; g < width; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(g)
			}()
		}
		run(0)
		wg.Wait()
		for _, f := range fails {
			if f.err != nil && f.i < first.i {
				first = f
			}
		}
	}
	if first.err != nil {
		return fmt.Errorf("worker %d: %w", first.i, first.err)
	}
	return nil
}

// failure is worker i's error.
type failure struct {
	i   int
	err error
}

// step runs the member's round t on slot sl over the stream's batches,
// drawing them first when draw is set: gradients, proposals, selection
// tracking, aggregation, the SGD step and, when due, evaluation. It
// ends the member after its last round, on divergence and on failure.
func (m *member) step(t int, sl *slot, st *stream, draw bool) {
	cfg := &m.cfg
	proposals := sl.proposals[:cfg.N]
	changed := m.arrivals.next(proposals)
	trainLoss, err := sl.gradients(st, m.params, draw)
	if err != nil {
		m.fail(fmt.Errorf("round %d gradients: %w", t, err))
		return
	}
	sl.atkCtx.F, sl.atkCtx.RNG = cfg.F, m.atkRNG
	if err := m.arrivals.propose(t, proposals, sl.grads, cfg.Attack, m.params, &sl.atkCtx); err != nil {
		m.fail(fmt.Errorf("round %d: %w", t, err))
		return
	}

	gamma := cfg.Schedule.Rate(t)
	stats := RoundStats{Round: t, TrainLoss: trainLoss, LearningRate: gamma}
	res := m.res

	// With Incremental set, the engine's RoundCache serves the matrix
	// on the first Distances() request, recomputing only changed rows;
	// rules that never consult distances (e.g. average) never pay for
	// it. On a round with replays the arrival trace knows which rows
	// changed and declares them — the honest change-set the property
	// tests audit through Result.Stats.RowUpdates. On a full-arrival
	// round the cache diffs the proposals itself, so a worker whose
	// proposal repeats verbatim (crashed, stalled, frozen) costs no
	// distance recomputation.
	round := m.engine.Round(proposals)
	if changed != nil {
		round.SetChanged(changed)
	}
	if cfg.TrackSelection {
		if sel, ok := selector(cfg.Rule); ok {
			indices, err := core.SelectContext(sel, round)
			if err != nil {
				m.fail(fmt.Errorf("round %d selection: %w", t, err))
				return
			}
			res.SelectionTrackedRounds++
			for _, idx := range indices {
				if idx >= cfg.N-cfg.F {
					stats.ByzantineChosen = true
					res.ByzantineSelectedRounds++
					break
				}
			}
		}
	}

	if err := core.AggregateContext(cfg.Rule, sl.update, round); err != nil {
		m.fail(fmt.Errorf("round %d aggregation: %w", t, err))
		return
	}
	stats.UpdateNorm = vec.Norm(sl.update)
	// The paper's step, x_{t+1} = x_t − γ_t·F(V_1 … V_n).
	vec.Axpy(-gamma, sl.update, m.params)

	diverged := !vec.AllFinite(m.params)
	if diverged {
		res.Diverged = true
		res.DivergedRound = t
	} else if cfg.EvalEvery > 0 && (t%cfg.EvalEvery == cfg.EvalEvery-1 || t == cfg.Rounds-1) {
		ev := sl.lanes[0]
		if err := ev.SetParams(m.params); err != nil {
			m.fail(fmt.Errorf("round %d eval: %w", t, err))
			return
		}
		evalX, evalY := st.eval(cfg.evalBatch())
		acc, loss, err := model.Evaluate(ev, evalX, evalY)
		if err != nil {
			m.fail(fmt.Errorf("round %d eval: %w", t, err))
			return
		}
		stats.Evaluated = true
		stats.TestAccuracy = acc
		stats.TestLoss = loss
		res.FinalTestAccuracy = acc
		res.FinalTestLoss = loss
	}

	res.History = append(res.History, stats)
	if cfg.OnRound != nil {
		cfg.OnRound(stats)
	}
	if diverged || t == cfg.Rounds-1 {
		// The parameters are the member's own buffer and nothing
		// references them once it ends, so the Result takes them.
		res.FinalParams = m.params
		res.Stats = m.engine.Stats()
		m.params, m.engine, m.done = nil, nil, true
	}
}
