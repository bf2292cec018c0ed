package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"krum"
	"krum/attack"
	"krum/data"
	"krum/distsgd"
	"krum/internal/vec"
	"krum/model"
	"krum/scenario"
	"krum/scenario/store"
)

// smallCell is the tracked runner-grid cell shape; service_overlap
// submits grids of the same shape.
var smallCell = scenario.Spec{
	Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
	Rule:      "krum",
	Schedule:  "const(gamma=0.1)",
	N:         9,
	F:         2,
	Rounds:    20,
	BatchSize: 8,
}

var (
	smallRules   = []string{"krum", "average", "multikrum(m=5)"}
	smallAttacks = []string{"none", "gaussian(sigma=200)"}
)

// mnistCell is the paper's experiment shape (d = 12 826) cut to 20
// rounds so that a 13-cell sweep takes about two seconds.
var mnistCell = scenario.Spec{
	Workload:       "mnist(size=16,hidden=48)",
	Schedule:       "const(gamma=0.1)",
	N:              20,
	F:              6,
	Rounds:         20,
	BatchSize:      16,
	EvalEvery:      10,
	EvalBatch:      300,
	TrackSelection: true,
}

// seedBase derives the first cell seed from the benchmark seed; the
// shift keeps seedBase + any sweep offset clear of overflow.
func seedBase(seed uint64) uint64 { return newSplitMix64(seed).next() >> 8 }

// smallSweep is the k-th grid_small sweep: 3 rules × 2 attacks × 2
// seeds, the seeds never used by another sweep.
func smallSweep(base uint64, k int) []scenario.Spec {
	return scenario.Matrix{
		Base:    smallCell,
		Rules:   smallRules,
		Attacks: smallAttacks,
		Seeds:   []uint64{base + 2*uint64(k), base + 2*uint64(k) + 1},
	}.Cells()
}

// mnistSweep is the k-th train_mnist_attack sweep: 4 rules × 3 attacks
// plus one asynchronous incremental cell, all on one fresh seed.
func mnistSweep(base uint64, k int) []scenario.Spec {
	cells := scenario.Matrix{
		Base:    mnistCell,
		Rules:   []string{"krum", "multikrum(m=10)", "coordmedian", "average"},
		Attacks: []string{"none", "gaussian(sigma=200)", "omniscient(scale=20)"},
		Seeds:   []uint64{base + uint64(k)},
	}.Cells()
	async := mnistCell
	async.Rule, async.Attack = "krum", "gaussian(sigma=200)"
	async.Arrival, async.Incremental = "bernoulli(p=0.5,tau=4)", true
	async.Seed = base + uint64(k)
	return append(cells, async)
}

// warmupOffset moves warm-up sweeps to seeds no measured sweep uses.
const warmupOffset = 1 << 40

// servedCell is a result the grid produced, kept for the output check.
type servedCell struct {
	spec   scenario.Spec
	result []byte
}

// grid drives an in-process scenario.Runner over generated sweeps.
type grid struct {
	base      uint64
	sweep     func(base uint64, k int) []scenario.Spec
	withStore bool
	// keepEvery-th cells are kept for recomputation in check.
	keepEvery int

	mu   sync.Mutex
	kept []servedCell
	seen int
	// accuracy collects final test accuracies by "rule/attack" label.
	accuracy map[string][]float64
}

func setupGridSmall(e env) (*instance, error) {
	g := &grid{base: seedBase(e.seed), sweep: smallSweep, withStore: true, keepEvery: 512}
	return g.instance(40, nil)
}

func setupTrainMNIST(e env) (*instance, error) {
	g := &grid{base: seedBase(e.seed), sweep: mnistSweep, keepEvery: 13, accuracy: map[string][]float64{}}
	return g.instance(0, g.checkScience)
}

// instance warms the runner up (warmups whole sweeps, or one cell when
// warmups is 0) and returns the workload instance.
func (g *grid) instance(warmups int, science func() error) (*instance, error) {
	if warmups == 0 {
		if _, err := scenario.ComputeCell(g.sweep(g.base+warmupOffset, 0)[0]); err != nil {
			return nil, err
		}
	}
	for k := 0; k < warmups; k++ {
		if _, failed := g.run(g.sweep(g.base+warmupOffset, k), 0, nil, false); failed > 0 {
			return nil, fmt.Errorf("warm-up sweep %d: %d cells failed", k, failed)
		}
	}
	return &instance{
		clients: 1,
		do: func(_, k int, tr *tracer) (int, int) {
			return g.run(g.sweep(g.base, k), int64(k), tr, true)
		},
		check: func() (int, error) {
			failed, err := g.checkBytes()
			if err == nil && science != nil {
				err = science()
			}
			return failed, err
		},
		layers: g.layers,
		close:  func() float64 { return 0 },
	}, nil
}

// run executes one sweep on a two-worker Runner — through the stock
// local executor untraced, through tracedExecutor traced — and returns
// the cells run and failed.
func (g *grid) run(cells []scenario.Spec, sweep int64, tr *tracer, keep bool) (ops, failed int) {
	var st scenario.ResultStore
	if g.withStore {
		st = store.NewMemory()
	}
	r := &scenario.Runner{Workers: workers, Store: st}
	if tr != nil {
		r.Executor = &tracedExecutor{tr: tr, st: st, op0: sweep * int64(len(cells))}
	}
	results, _ := r.RunCells(cells)
	for _, cr := range results {
		if cr.Err != nil || cr.StoreErr != nil || cr.Result == nil {
			failed++
		}
	}
	if keep {
		g.keep(results)
	}
	return len(cells), failed
}

// keep retains every keepEvery-th result's stable JSON for checkBytes,
// and every evaluated accuracy for checkScience.
func (g *grid) keep(results []scenario.CellResult) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, cr := range results {
		if cr.Result == nil {
			continue
		}
		if g.accuracy != nil && cr.Spec.Arrival == "" {
			label := ruleName(cr.Spec.Rule) + "/" + ruleName(cr.Spec.Attack)
			g.accuracy[label] = append(g.accuracy[label], cr.Result.FinalTestAccuracy)
		}
		if g.seen++; g.seen%g.keepEvery == 1 {
			blob, err := json.Marshal(cr.Result)
			if err != nil {
				blob = nil // checkBytes reports the cell as wrong
			}
			g.kept = append(g.kept, servedCell{cr.Spec, blob})
		}
	}
}

// checkBytes recomputes the kept cells with scenario.ComputeCell and
// counts those whose stable JSON differs from what the Runner returned
// — traced or not, through the store or not, a cell is a pure function
// of its spec.
func (g *grid) checkBytes() (failed int, err error) {
	for _, c := range g.kept {
		want, err := computeCellJSON(c.spec)
		if err != nil {
			return failed, err
		}
		if !bytes.Equal(want, c.result) {
			failed++
		}
	}
	if len(g.kept) == 0 {
		return 0, fmt.Errorf("no cell kept for the byte-identity check")
	}
	return failed, nil
}

func computeCellJSON(spec scenario.Spec) ([]byte, error) {
	res, err := scenario.ComputeCell(spec)
	if err != nil {
		return nil, fmt.Errorf("recomputing %s: %w", spec.Label(), err)
	}
	return json.Marshal(res)
}

// checkScience holds the run to the paper's claim at this shape: Krum
// and Multi-Krum keep learning under both attacks (Prop. 4.2), while
// averaging is driven to chance by the omniscient one (Lemma 3.1).
// Measured at 20 rounds: 0.85–0.89 against 0.09–0.12.
func (g *grid) checkScience() error {
	var held []float64
	for _, rule := range []string{"krum", "multikrum"} {
		for _, atk := range []string{"gaussian", "omniscient"} {
			held = append(held, g.accuracy[rule+"/"+atk]...)
		}
	}
	broken := g.accuracy["average/omniscient"]
	if len(held) == 0 || len(broken) == 0 {
		return fmt.Errorf("science check saw no attacked cells")
	}
	if m := mean(held); m < 0.75 {
		return fmt.Errorf("krum/multikrum mean accuracy under attack %.3f, want ≥ 0.75", m)
	}
	if m := mean(broken); m > 0.5 {
		return fmt.Errorf("average under omniscient reached accuracy %.3f, want ≤ 0.5", m)
	}
	return nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ruleName strips a registry spec to its name: "multikrum(m=5)" →
// "multikrum".
func ruleName(spec string) string {
	name, _, _ := strings.Cut(spec, "(")
	return name
}

// layers turns the traced window's totals into per-cell layer metrics.
func (g *grid) layers(lc *layerContext) error {
	tr, cells, out := lc.tr, lc.ops, lc.out
	out["workload.build_ms_per_cell"] = tr.msPer("workload.build", cells)
	out["data.sample_ms_per_cell"] = tr.msPer("data.sample", cells)
	out["data.samples_per_cell"] = tr.count("data.sample") / cells
	out["model.grad_ms_per_cell"] = tr.msPer("model.gradient", cells)
	out["model.grad_calls_per_cell"] = tr.count("model.gradient") / cells
	out["attack.propose_ms_per_cell"] = tr.msPer("attack.propose", cells)
	serial := tr.ms("attack.propose")
	for _, rule := range []string{"krum", "multikrum", "coordmedian", "average"} {
		ms := tr.ms("core.aggregate." + rule)
		serial += ms
		out["core.aggregate_ms_per_cell."+rule] = ms / max(1, tr.count("cells."+rule))
		out["core.aggregate_ms_per_cell"] += ms / cells
	}
	out["distsgd.run_ms_per_cell"] = tr.msPer("distsgd.run", cells)
	// Sample and gradient spans run on n−f goroutines sharing two
	// cores, so their sums include time spent runnable; the phase's
	// wall time is what the run leaves once the serial spans are out.
	out["distsgd.gradient_phase_ms_per_cell"] = (tr.ms("distsgd.run") - serial) / cells
	out["store.lookup_miss_us"] = 1000 * tr.msPer("store.lookup", tr.count("store.lookup"))
	out["store.save_us"] = 1000 * tr.msPer("store.save", tr.count("store.save"))
	if len(g.kept) == 0 {
		return fmt.Errorf("no cell kept for the codec probes")
	}
	probeResultCodec(g.kept, out)
	if g.withStore {
		probeStoreKey(g.kept, out)
	}
	return nil
}

// probeResultCodec times the stable JSON encoding the store and the
// service pay per cell, on results the workload really produced.
func probeResultCodec(cells []servedCell, out map[string]float64) {
	const rounds = 5
	var results []*distsgd.Result
	var size int
	t := time.Now()
	for range rounds {
		results = results[:0]
		for _, c := range cells {
			var res distsgd.Result
			if json.Unmarshal(c.result, &res) == nil {
				results = append(results, &res)
			}
		}
	}
	decode := time.Since(t)
	t = time.Now()
	for range rounds {
		size = 0
		for _, res := range results {
			blob, _ := json.Marshal(res) // re-encoding a decoded result cannot fail
			size += len(blob)
		}
	}
	encode := time.Since(t)
	n := float64(rounds * max(1, len(results)))
	out["distsgd.decode_us_per_cell"] = float64(decode.Microseconds()) / n
	out["distsgd.encode_us_per_cell"] = float64(encode.Microseconds()) / n
	out["distsgd.result_bytes_per_cell"] = float64(size) / float64(max(1, len(results)))
}

// probeStoreKey times the canonical content hash every store lookup
// and save starts with.
func probeStoreKey(cells []servedCell, out map[string]float64) {
	const rounds = 5
	t := time.Now()
	for range rounds {
		for _, c := range cells {
			if _, err := store.Key(c.spec); err != nil {
				return
			}
		}
	}
	out["store.key_us"] = float64(time.Since(t).Microseconds()) / float64(rounds*len(cells))
}

// tracedExecutor is the scenario.CellExecutor of a traced window. It
// follows RunCellWith like the local executor, but compiles each spec
// itself and wraps the injectable seams of distsgd.Config — dataset,
// model, attack and rule — in span-recording forwarders. Source stays
// nil, so every RNG stream is the one the untraced path draws.
type tracedExecutor struct {
	tr  *tracer
	st  scenario.ResultStore
	op0 int64
}

func (e *tracedExecutor) ExecuteCell(index int, cell scenario.Spec) scenario.CellResult {
	op := e.op0 + int64(index)
	root := e.tr.begin("scenario.cell", -1, op)
	defer e.tr.end(root)
	var st scenario.ResultStore
	if e.st != nil {
		st = tracedStore{e.st, e.tr, root.id, op}
	}
	return scenario.RunCellWith(st, index, cell, func() (*distsgd.Result, error) {
		return tracedCompute(e.tr, root.id, op, cell)
	})
}

// tracedStore times Lookup and Save. It is a plain ResultStore, so
// RunCellWith takes the lookup/compute/save path, not DoCell; with one
// fresh memory store per sweep and distinct seeds the two agree.
type tracedStore struct {
	inner  scenario.ResultStore
	tr     *tracer
	parent int
	op     int64
}

func (s tracedStore) Lookup(spec scenario.Spec) (*distsgd.Result, bool) {
	defer s.tr.end(s.tr.begin("store.lookup", s.parent, s.op))
	return s.inner.Lookup(spec)
}

func (s tracedStore) Save(spec scenario.Spec, res *distsgd.Result) error {
	defer s.tr.end(s.tr.begin("store.save", s.parent, s.op))
	return s.inner.Save(spec, res)
}

// cellTrace is what one traced cell's forwarders share.
type cellTrace struct {
	tr     *tracer
	parent int
	op     int64
	// Sample runs about a thousand times per small cell, so its calls
	// are summed here and folded into the tracer once per cell.
	samples, sampleNs atomic.Int64
}

func (c *cellTrace) span(name string) open { return c.tr.begin(name, c.parent, c.op) }

// tracedCompute is scenario.ComputeCell with spans: Spec.Compile, then
// distsgd.Run over wrapped seams.
func tracedCompute(tr *tracer, parent int, op int64, cell scenario.Spec) (*distsgd.Result, error) {
	build := tr.begin("workload.build", parent, op)
	cfg, err := cell.Compile()
	tr.end(build)
	if err != nil {
		return nil, err
	}
	rule, err := krum.ParseRuleIn(krum.SpecContext{N: cell.N, F: cell.F}, cell.Rule)
	if err != nil {
		return nil, err
	}
	var atk attack.Strategy = attack.None{}
	if cell.Attack != "" {
		if atk, err = attack.Parse(cell.Attack); err != nil {
			return nil, err
		}
	}
	run := tr.begin("distsgd.run", parent, op)
	c := &cellTrace{tr: tr, parent: run.id, op: op}
	cfg.RuleSpec, cfg.Rule = "", wrapRule(rule, c)
	cfg.AttackSpec, cfg.Attack = "", tracedAttack{atk, c}
	cfg.Dataset = tracedDataset{cfg.Dataset, c}
	cfg.Model = tracedModel{cfg.Model, c}
	res, err := distsgd.Run(cfg)
	tr.end(run)
	tr.add("data.sample", c.samples.Load(), c.sampleNs.Load())
	tr.add("cells."+ruleName(cell.Rule), 1, 0)
	return res, err
}

type tracedDataset struct {
	data.Dataset
	c *cellTrace
}

func (d tracedDataset) Sample(rng *vec.RNG, x, y []float64) {
	t := time.Now()
	d.Dataset.Sample(rng, x, y)
	d.c.sampleNs.Add(int64(time.Since(t)))
	d.c.samples.Add(1)
}

// tracedModel times Gradient; every other method forwards. Clone
// returns a wrapper, so the per-worker replicas distsgd makes are
// traced too.
type tracedModel struct {
	model.Model
	c *cellTrace
}

func (m tracedModel) Gradient(dst []float64, x, y *vec.Dense) (float64, error) {
	defer m.c.tr.end(m.c.span("model.gradient"))
	return m.Model.Gradient(dst, x, y)
}

func (m tracedModel) Clone() model.Model { return tracedModel{m.Model.Clone(), m.c} }

type tracedAttack struct {
	attack.Strategy
	c *cellTrace
}

func (a tracedAttack) Propose(ctx *attack.Context) [][]float64 {
	defer a.c.tr.end(a.c.span("attack.propose"))
	return a.Strategy.Propose(ctx)
}

// tracedRule times aggregation. It forwards AggregateContext, so the
// round's shared distance matrix is still built once.
type tracedRule struct {
	inner krum.Rule
	c     *cellTrace
	span  string
}

func (r *tracedRule) Name() string { return r.inner.Name() }

func (r *tracedRule) Aggregate(dst []float64, vectors [][]float64) error {
	defer r.c.tr.end(r.c.span(r.span))
	return r.inner.Aggregate(dst, vectors)
}

func (r *tracedRule) AggregateContext(dst []float64, ctx *krum.RoundContext) error {
	defer r.c.tr.end(r.c.span(r.span))
	if cr, ok := r.inner.(krum.ContextRule); ok {
		return cr.AggregateContext(dst, ctx)
	}
	return r.inner.Aggregate(dst, ctx.Vectors())
}

// tracedSelector is tracedRule for rules distsgd may also ask for
// their selection (TrackSelection); select time counts as aggregation.
type tracedSelector struct {
	*tracedRule
	sel krum.Selector
}

func (r *tracedSelector) Select(vectors [][]float64) ([]int, error) {
	defer r.c.tr.end(r.c.span(r.span))
	return r.sel.Select(vectors)
}

func (r *tracedSelector) SelectContext(ctx *krum.RoundContext) ([]int, error) {
	defer r.c.tr.end(r.c.span(r.span))
	if cs, ok := r.sel.(krum.ContextSelector); ok {
		return cs.SelectContext(ctx)
	}
	return r.sel.Select(ctx.Vectors())
}

// wrapRule wraps rule so that it is a Selector exactly when rule is:
// distsgd.Run decides by type assertion whether to track selection.
func wrapRule(rule krum.Rule, c *cellTrace) krum.Rule {
	tr := &tracedRule{inner: rule, c: c, span: "core.aggregate." + ruleName(rule.Name())}
	if sel, ok := rule.(krum.Selector); ok {
		return &tracedSelector{tr, sel}
	}
	return tr
}
