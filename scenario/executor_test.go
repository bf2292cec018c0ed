package scenario_test

// RunCellWith's single-flight branch against a scripted
// RawSingleFlighter: what the leader, a hit and a follower get back,
// and how store and compute failures surface. The real store's
// concurrency is covered in scenario/store.

import (
	"encoding/json"
	"errors"
	"testing"

	"krum/distsgd"
	"krum/internal/core"
	"krum/scenario"
)

// fakeFlighter is a RawSingleFlighter that either answers with canned
// shared bytes (a hit or a follower: compute is not called) or runs
// compute as the leader, keeping what it would persist.
type fakeFlighter struct {
	t *testing.T
	// shared, when non-nil, is returned with shared=true.
	shared json.RawMessage
	// storeErr is the leader's write-through failure.
	storeErr error
	// stored is the leader's bytes, as handed to the store.
	stored json.RawMessage
}

func (f *fakeFlighter) DoCellRaw(_ scenario.Spec, compute func() (json.RawMessage, error)) (json.RawMessage, bool, error, error) {
	if f.shared != nil {
		return f.shared, true, nil, nil
	}
	raw, err := compute()
	if err != nil {
		return nil, false, nil, err
	}
	f.stored = raw
	return raw, false, f.storeErr, nil
}

func (f *fakeFlighter) Lookup(scenario.Spec) (*distsgd.Result, bool) {
	f.t.Error("RunCellWith called Lookup on a single-flight store")
	return nil, false
}

func (f *fakeFlighter) Save(scenario.Spec, *distsgd.Result) error {
	f.t.Error("RunCellWith called Save on a single-flight store")
	return nil
}

func flightResult() *distsgd.Result {
	return &distsgd.Result{
		FinalParams:       []float64{1, -2, 0.5},
		FinalTestAccuracy: 0.75,
		Kernel:            "pair2",
		Stats:             core.CacheStats{Builds: 7, Reuses: 3},
	}
}

func TestRunCellWithLeaderKeepsItsResult(t *testing.T) {
	res := flightResult()
	f := &fakeFlighter{t: t}
	cr := scenario.RunCellWith(f, 4, scenario.Spec{}, func() (*distsgd.Result, error) { return res, nil })
	if cr.Err != nil || cr.StoreErr != nil || cr.Cached || cr.Index != 4 {
		t.Fatalf("leader: %+v", cr)
	}
	if cr.Result != res || cr.Result.Stats.Builds != 7 {
		t.Errorf("leader got %p (stats %+v), want compute's own %p with its stats", cr.Result, cr.Result.Stats, res)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.stored) != string(want) {
		t.Errorf("the store received %s, want the result's stable encoding %s", f.stored, want)
	}
}

func TestRunCellWithSharedBytesDecodePrivateCopies(t *testing.T) {
	raw, err := json.Marshal(flightResult())
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeFlighter{t: t, shared: raw}
	noCompute := func() (*distsgd.Result, error) {
		t.Error("compute ran on a shared answer")
		return nil, errors.New("unreachable")
	}
	a := scenario.RunCellWith(f, 0, scenario.Spec{}, noCompute)
	b := scenario.RunCellWith(f, 1, scenario.Spec{}, noCompute)
	for _, cr := range []scenario.CellResult{a, b} {
		if cr.Err != nil || cr.StoreErr != nil || !cr.Cached || cr.Result == nil {
			t.Fatalf("shared answer: %+v", cr)
		}
		if cr.Result.Stats != (core.CacheStats{}) {
			t.Errorf("a decoded result carries stats %+v; Stats is not encoded", cr.Result.Stats)
		}
		if got, _ := json.Marshal(cr.Result); string(got) != string(raw) {
			t.Errorf("decoded result re-encodes to %s, want %s", got, raw)
		}
	}
	if a.Result == b.Result {
		t.Fatal("two callers share one *Result")
	}
	a.Result.FinalParams[0] = 99
	if b.Result.FinalParams[0] == 99 {
		t.Error("mutating one caller's result changed another's")
	}
}

func TestRunCellWithUndecodableSharedBytes(t *testing.T) {
	f := &fakeFlighter{t: t, shared: json.RawMessage(`{"final_params_b64": "%%%"}`)}
	cr := scenario.RunCellWith(f, 0, scenario.Spec{}, func() (*distsgd.Result, error) {
		t.Error("compute ran on a shared answer")
		return nil, errors.New("unreachable")
	})
	if cr.Err == nil || cr.Result != nil || cr.Cached || cr.StoreErr != nil {
		t.Errorf("undecodable shared bytes: %+v, want Err and no Result", cr)
	}
}

func TestRunCellWithStoreErrorKeepsResult(t *testing.T) {
	diskFull := errors.New("disk full")
	res := flightResult()
	f := &fakeFlighter{t: t, storeErr: diskFull}
	cr := scenario.RunCellWith(f, 0, scenario.Spec{}, func() (*distsgd.Result, error) { return res, nil })
	if !errors.Is(cr.StoreErr, diskFull) || cr.Err != nil || cr.Cached {
		t.Fatalf("store failure: %+v, want StoreErr only", cr)
	}
	if cr.Result != res {
		t.Error("a failed write-through lost the computed result")
	}
}

func TestRunCellWithComputeErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	f := &fakeFlighter{t: t}
	cr := scenario.RunCellWith(f, 0, scenario.Spec{}, func() (*distsgd.Result, error) {
		return flightResult(), boom
	})
	if !errors.Is(cr.Err, boom) || cr.Result != nil || cr.Cached || cr.StoreErr != nil {
		t.Fatalf("compute failure: %+v, want Err and no Result", cr)
	}
	if f.stored != nil {
		t.Errorf("a failed compute handed %s to the store", f.stored)
	}
}
