package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"krum/scenario"
)

// The seam wrappers must be invisible to training: same RNG streams,
// same rule dispatch (shared-matrix path, selection tracking), same
// bytes.
func TestTracedComputeIsByteIdenticalToComputeCell(t *testing.T) {
	cell := smallCell
	cell.Rounds, cell.Seed = 6, 42
	cell.EvalEvery, cell.EvalBatch = 3, 32
	for _, c := range []struct{ rule, attack, arrival string }{
		{"krum", "gaussian(sigma=200)", ""},
		{"multikrum(m=5)", "none", ""},
		{"average", "", ""},
		{"coordmedian", "omniscient(scale=20)", ""},
		{"krum", "gaussian(sigma=200)", "bernoulli(p=0.5,tau=4)"},
	} {
		cell.Rule, cell.Attack, cell.Arrival = c.rule, c.attack, c.arrival
		cell.TrackSelection, cell.Incremental = true, c.arrival != ""
		want, err := computeCellJSON(cell)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(1)
		res, err := tracedCompute(tr, -1, 0, cell)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s / %q / %q: traced result differs from scenario.ComputeCell", c.rule, c.attack, c.arrival)
		}
		honest := float64(cell.N - cell.F)
		if got, want := tr.count("model.gradient"), float64(cell.Rounds)*honest; got != want {
			t.Errorf("%s: %v gradient spans, want %v", c.rule, got, want)
		}
		if got := tr.count("data.sample"); got < float64(cell.Rounds*cell.BatchSize)*honest {
			t.Errorf("%s: %v samples, want at least rounds × batch × honest workers", c.rule, got)
		}
		if tr.count("core.aggregate."+ruleName(c.rule)) < float64(cell.Rounds) {
			t.Errorf("%s: aggregation was not traced every round", c.rule)
		}
		if tr.count("attack.propose") == 0 || tr.count("workload.build") != 1 || tr.count("distsgd.run") != 1 {
			t.Errorf("%s: missing attack, build or run span", c.rule)
		}
	}
}

func TestTracedExecutorMatchesRunnerThroughStore(t *testing.T) {
	g := &grid{sweep: func(base uint64, k int) []scenario.Spec {
		cells := smallSweep(base, k)[:4]
		for i := range cells {
			cells[i].Rounds = 4
		}
		return cells
	}, withStore: true, keepEvery: 2}
	tr := newTracer(1)
	if ops, failed := g.run(g.sweep(5, 0), 0, tr, true); ops != 4 || failed != 0 {
		t.Fatalf("traced sweep: %d ops, %d failed", ops, failed)
	}
	if ops, failed := g.run(g.sweep(5, 1), 1, nil, true); ops != 4 || failed != 0 {
		t.Fatalf("untraced sweep: %d ops, %d failed", ops, failed)
	}
	if failed, err := g.checkBytes(); err != nil || failed != 0 || len(g.kept) != 4 {
		t.Errorf("checkBytes: %d of %d kept cells differ, err %v", failed, len(g.kept), err)
	}
	if tr.count("scenario.cell") != 4 || tr.count("store.lookup") != 4 || tr.count("store.save") != 4 {
		t.Errorf("traced sweep recorded %v cells, %v lookups, %v saves; want 4 each",
			tr.count("scenario.cell"), tr.count("store.lookup"), tr.count("store.save"))
	}
	// A served cell that is wrong must be counted.
	g.kept[0].result = append([]byte(nil), g.kept[1].result...)
	if failed, _ := g.checkBytes(); failed != 1 {
		t.Errorf("checkBytes missed a swapped result: %d failed", failed)
	}
}

func TestSweepsNeverShareASeed(t *testing.T) {
	seen := map[uint64]int{}
	for k := 0; k < 50; k++ {
		for _, c := range smallSweep(1000, k) {
			seen[c.Seed]++
		}
	}
	for seed, n := range seen {
		// 3 rules × 2 attacks share each seed inside its own sweep.
		if n != 6 {
			t.Fatalf("seed %d used by %d cells, want 6", seed, n)
		}
	}
	if got := len(mnistSweep(1, 0)); got != 13 {
		t.Errorf("mnist sweep has %d cells, want 13", got)
	}
	if seedBase(1) == seedBase(2) {
		t.Error("the benchmark seed does not reach the cell seeds")
	}
}
