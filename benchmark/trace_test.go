package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "cell", Start: 0, End: 100, Parent: -1},
		{Name: "run", Start: 10, End: 90, Parent: 0},
		// Two concurrent gradients overlapping on [30, 40], one serial
		// aggregate, one child leaking past its parent's end.
		{Name: "grad", Start: 20, End: 40, Parent: 1},
		{Name: "grad", Start: 30, End: 50, Parent: 1},
		{Name: "agg", Start: 60, End: 70, Parent: 1},
		{Name: "agg", Start: 85, End: 95, Parent: 1},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"cell": 20,               // 100 − [10, 90]
		"run":  80 - 30 - 10 - 5, // − [20, 50] − [60, 70] − [85, 90]
		"grad": 40,
		"agg":  20,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestTracerKeepsEveryNthOpAndTotalsAll(t *testing.T) {
	tr := newTracer(4)
	for op := int64(0); op < 8; op++ {
		root := tr.begin("op", -1, op)
		child := tr.begin("child", root.id, op)
		tr.end(child)
		tr.sub(root, "phase", op, 0, 5)
		tr.end(root)
	}
	tr.add("fine", 1000, 2_000_000)
	if tr.kept() != 6 { // ops 0 and 4, three spans each
		t.Errorf("kept %d spans, want 6", tr.kept())
	}
	if tr.count("op") != 8 || tr.count("child") != 8 || tr.count("phase") != 8 {
		t.Errorf("totals must count unkept ops too: %v %v %v", tr.count("op"), tr.count("child"), tr.count("phase"))
	}
	if tr.count("fine") != 1000 || tr.ms("fine") != 2 {
		t.Errorf("add: count %v ms %v, want 1000 and 2", tr.count("fine"), tr.ms("fine"))
	}
	for _, s := range tr.spans {
		if s.Name != "op" && (s.Parent < 0 || tr.spans[s.Parent].Op != s.Op) {
			t.Errorf("span %+v is not parented to its op's root", s)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	o := tr.begin("x", -1, 0)
	tr.end(o)
	tr.sub(o, "y", 0, 0, 1)
	tr.add("z", 1, 1)
	if o.id != -1 || tr.count("x") != 0 || tr.ms("x") != 0 || tr.kept() != 0 {
		t.Error("a nil tracer must be inert")
	}
}
