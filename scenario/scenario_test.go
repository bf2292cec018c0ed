package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"krum/attack"
	"krum/internal/core"
	"krum/internal/sgd"
	"krum/internal/vec"
	"krum/workload"
)

// quickSpec is a seconds-scale training cell used across the tests.
func quickSpec() Spec {
	return Spec{
		Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
		Rule:      "krum",
		Attack:    "gaussian(sigma=200)",
		Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
		N:         9,
		F:         2,
		Rounds:    30,
		BatchSize: 8,
		Seed:      11,
		EvalEvery: 10,
		EvalBatch: 128,
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := quickSpec()
	s.Name = "cell-0"
	s.TrackSelection = true
	data, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpecJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", s, back)
	}
}

func TestParseSpecJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpecJSON([]byte(`{"rule": "krum", "typo_field": 3}`)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown field accepted: %v", err)
	}
}

// TestParseSpecJSONRejectsTrailingContent: a spec is exactly one JSON
// value; only whitespace may follow it.
func TestParseSpecJSONRejectsTrailingContent(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"rule":"krum"}`, true},
		{" {\"rule\":\"krum\"} \n\t", true},
		{`{"rule":"krum"}]]]`, false},
		{`{"rule":"krum"} garbage`, false},
		{`{"rule":"krum"}{"rule":"average"}`, false},
		{`{"rule":"krum"} null`, false},
	} {
		_, err := ParseSpecJSON([]byte(tc.body))
		if tc.ok && err != nil {
			t.Errorf("ParseSpecJSON(%q) = %v, want success", tc.body, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSpecJSON(%q) = %v, want ErrBadSpec", tc.body, err)
		}
	}
}

// TestValidateWrapsAxisSentinels: each axis failure surfaces the owning
// registry's sentinel, so callers can tell which layer rejected a
// config file.
func TestValidateWrapsAxisSentinels(t *testing.T) {
	good := quickSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Spec)
		want   error
	}{
		{func(s *Spec) { s.Rule = "nosuchrule" }, core.ErrBadParameter},
		{func(s *Spec) { s.Rule = "krum(f=x)" }, core.ErrBadParameter},
		{func(s *Spec) { s.Attack = "nosuchattack" }, attack.ErrBadSpec},
		{func(s *Spec) { s.Schedule = "inverset(gamma=0)" }, sgd.ErrBadSchedule},
		{func(s *Spec) { s.Workload = "mnist(size=1)" }, workload.ErrBadSpec},
		{func(s *Spec) { s.Rule = "" }, ErrBadSpec},
		{func(s *Spec) { s.Schedule = "" }, ErrBadSpec},
		{func(s *Spec) { s.Workload = "" }, ErrBadSpec},
		{func(s *Spec) { s.F = s.N }, ErrBadSpec},
		{func(s *Spec) { s.Rounds = 0 }, ErrBadSpec},
		{func(s *Spec) { s.BatchSize = 0 }, ErrBadSpec},
	}
	for i, tc := range cases {
		s := quickSpec()
		tc.mutate(&s)
		if err := s.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("case %d: Validate() = %v, want %v", i, err, tc.want)
		}
	}
}

func TestMatrixCellsExpansion(t *testing.T) {
	m := Matrix{
		Base:    quickSpec(),
		Rules:   []string{"krum", "average"},
		Attacks: []string{"none", "gaussian(sigma=200)", "signflip"},
		Fs:      []int{0, 2},
		Seeds:   []uint64{1, 2},
	}
	cells := m.Cells()
	if len(cells) != m.Size() || len(cells) != 2*3*2*2 {
		t.Fatalf("%d cells, Size() = %d, want 24", len(cells), m.Size())
	}
	// Seeds vary fastest; rules slowest (no workload axis).
	if cells[0].Seed != 1 || cells[1].Seed != 2 {
		t.Errorf("seed order: %d, %d", cells[0].Seed, cells[1].Seed)
	}
	if cells[0].Rule != "krum" || cells[len(cells)-1].Rule != "average" {
		t.Errorf("rule order: %s ... %s", cells[0].Rule, cells[len(cells)-1].Rule)
	}
	if cells[0].Attack != "none" {
		t.Errorf("first attack %q", cells[0].Attack)
	}
	// Axes not swept inherit the base.
	for _, c := range cells {
		if c.Workload != m.Base.Workload || c.Schedule != m.Base.Schedule {
			t.Fatalf("cell lost base fields: %+v", c)
		}
		if c.Name == "" {
			t.Fatal("cell has no generated name")
		}
	}
	// Expansion is deterministic.
	if !reflect.DeepEqual(cells, m.Cells()) {
		t.Error("two expansions differ")
	}
}

// TestMatrixSizeSaturates: six axes of 2¹¹ entries declare 2⁶⁶ cells,
// more than an int holds; Size says math.MaxInt instead of wrapping.
func TestMatrixSizeSaturates(t *testing.T) {
	const k = 1 << 11
	specs := make([]string, k)
	m := Matrix{Workloads: specs, Rules: specs, Attacks: specs, Arrivals: specs, Fs: make([]int, k), Seeds: make([]uint64, k)}
	if got := m.Size(); got != math.MaxInt {
		t.Errorf("Size() = %d, want math.MaxInt", got)
	}
}

func TestMatrixDeriveSeeds(t *testing.T) {
	m := Matrix{
		Base:        quickSpec(),
		Rules:       []string{"krum", "average"},
		Fs:          []int{0, 2},
		DeriveSeeds: true,
	}
	cells := m.Cells()
	seen := map[uint64]bool{}
	for _, c := range cells {
		if seen[c.Seed] {
			t.Fatalf("derived seed %d repeats", c.Seed)
		}
		seen[c.Seed] = true
	}
	if !reflect.DeepEqual(cells, m.Cells()) {
		t.Error("derived seeds are not deterministic")
	}
}

func TestMatrixJSONRoundTrip(t *testing.T) {
	m := Matrix{
		Base:  quickSpec(),
		Rules: []string{"krum", "multikrum(f=2,m=4)"},
		Seeds: []uint64{1, 2, 3},
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseMatrixJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", m, back)
	}
	if _, err := ParseMatrixJSON([]byte(`{"base": {}, "rulez": []}`)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown field accepted: %v", err)
	}
}

// TestParseMatrixJSONRejectsTrailingContent: a matrix is exactly one
// JSON value; only whitespace may follow it.
func TestParseMatrixJSONRejectsTrailingContent(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"rules":["krum"]}`, true},
		{"{\"rules\":[\"krum\"]}\n", true},
		{`{"rules":["krum"]} garbage`, false},
		{`{"rules":["krum"]}]`, false},
		{`{"rules":["krum"]}{}`, false},
		{`{"rules":["krum"]} 1`, false},
	} {
		_, err := ParseMatrixJSON([]byte(tc.body))
		if tc.ok && err != nil {
			t.Errorf("ParseMatrixJSON(%q) = %v, want success", tc.body, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseMatrixJSON(%q) = %v, want ErrBadSpec", tc.body, err)
		}
	}
}

func TestMatrixValidateReportsCell(t *testing.T) {
	m := Matrix{Base: quickSpec(), Rules: []string{"krum", "nosuchrule"}}
	err := m.Validate()
	if !errors.Is(err, core.ErrBadParameter) {
		t.Fatalf("Validate() = %v", err)
	}
	if !strings.Contains(err.Error(), "cell 1") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
	if err := (Matrix{Base: quickSpec()}).Validate(); err != nil {
		t.Errorf("singleton matrix rejected: %v", err)
	}
}

// TestRunnerDeterministicAcrossWorkerCounts is the concurrency
// contract: the same matrix produces identical per-cell results
// whatever the goroutine pool size or interleaving.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	m := Matrix{
		Base:  quickSpec(),
		Rules: []string{"krum", "average"},
		Fs:    []int{0, 2},
		Seeds: []uint64{5, 6},
	}
	serial, err := (&Runner{Workers: 1}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Runner{Workers: 8}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) || len(serial) != m.Size() {
		t.Fatalf("result counts: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Index != i || b.Index != i {
			t.Fatalf("cell %d: index mismatch (%d, %d)", i, a.Index, b.Index)
		}
		if !vec.ApproxEqual(a.Result.FinalParams, b.Result.FinalParams, 0) {
			t.Errorf("cell %d (%s): FinalParams differ across worker counts", i, a.Spec.Label())
		}
		if len(a.Result.History) != len(b.Result.History) {
			t.Errorf("cell %d: history lengths differ", i)
			continue
		}
		for r := range a.Result.History {
			if a.Result.History[r] != b.Result.History[r] {
				t.Errorf("cell %d round %d: %+v != %+v", i, r, a.Result.History[r], b.Result.History[r])
				break
			}
		}
	}
}

// TestRunnerDeterministicWithIncrementalCache extends the concurrency
// contract to the cross-round incremental distance cache: with
// Incremental set on every cell, results must be byte-identical (a)
// across runner worker counts and (b) against the same matrix with the
// cache disabled. The crash attack freezes the Byzantine proposals
// from round 3 on, so the cached cells genuinely serve rounds through
// incremental row updates instead of rebuilding every round.
func TestRunnerDeterministicWithIncrementalCache(t *testing.T) {
	base := quickSpec()
	base.Attack = "crash(after=3)"
	base.Incremental = true
	m := Matrix{
		Base:  base,
		Rules: []string{"krum", "multikrum(m=5)"},
		Seeds: []uint64{5, 6},
	}
	serial, err := (&Runner{Workers: 1}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Runner{Workers: 8}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	plainMatrix := m
	plainMatrix.Base.Incremental = false
	plain, err := (&Runner{Workers: 4}).Run(plainMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != m.Size() || len(parallel) != m.Size() || len(plain) != m.Size() {
		t.Fatalf("result counts: %d / %d / %d, want %d", len(serial), len(parallel), len(plain), m.Size())
	}
	for i := range serial {
		a, b, c := serial[i], parallel[i], plain[i]
		if !reflect.DeepEqual(a.Result.FinalParams, b.Result.FinalParams) {
			t.Errorf("cell %d (%s): FinalParams differ across worker counts", i, a.Spec.Label())
		}
		if !reflect.DeepEqual(a.Result.FinalParams, c.Result.FinalParams) {
			t.Errorf("cell %d (%s): incremental cache changed FinalParams", i, a.Spec.Label())
		}
		if !reflect.DeepEqual(a.Result.History, b.Result.History) {
			t.Errorf("cell %d: history differs across worker counts", i)
		}
		if !reflect.DeepEqual(a.Result.History, c.Result.History) {
			t.Errorf("cell %d: incremental cache changed the round history", i)
		}
	}
}

// TestSpecIncrementalRoundTrip: the Incremental flag must survive the
// JSON round-trip (strict decoding included) and land in the compiled
// distsgd.Config.
func TestSpecIncrementalRoundTrip(t *testing.T) {
	s := quickSpec()
	s.Incremental = true
	blob, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpecJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Incremental {
		t.Errorf("round-trip lost the flag: %+v", back)
	}
	cfg, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Incremental {
		t.Error("compile lost the incremental flag")
	}
	// Unset it stays omitted — the JSON form of old specs is unchanged,
	// so pre-existing store keys cannot shift.
	s.Incremental = false
	blob, err = s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), `"incremental"`) {
		t.Errorf("zero-value flag serialized: %s", blob)
	}
}

// TestLegacyScreenedFieldRejected: "screened" was a spec field until
// screened selection was deleted, "parallel" until the distance build
// took its goroutine count from its own shape. Configs still carrying
// either — set or zero, in a spec or a matrix base — must fail strict
// decoding with the unknown-field error rather than be silently run
// without it.
func TestLegacyScreenedFieldRejected(t *testing.T) {
	spec := `{"workload":"gmm(k=3,dim=6)","rule":"krum","schedule":"const(gamma=0.1)","n":9,"f":2,"rounds":8,"batch_size":8,"seed":7,%q:%s}`
	for _, legacy := range [][2]string{{"screened", "true"}, {"screened", "false"}, {"parallel", "4"}, {"parallel", "0"}} {
		field, v := legacy[0], legacy[1]
		unknown := fmt.Sprintf("unknown field %q", field)
		one := fmt.Sprintf(spec, field, v)
		if _, err := ParseSpecJSON([]byte(one)); !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), unknown) {
			t.Errorf("ParseSpecJSON(%s=%s) = %v, want the unknown-field ErrBadSpec", field, v, err)
		}
		matrix := `{"base":` + one + `,"seeds":[1,2]}`
		if _, err := ParseMatrixJSON([]byte(matrix)); !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), unknown) {
			t.Errorf("ParseMatrixJSON(base.%s=%s) = %v, want the unknown-field ErrBadSpec", field, v, err)
		}
	}
}

// TestRunnerStreamsEveryCell: OnCell sees each cell exactly once, and
// FinalParams mutations by the callback cannot corrupt engine state
// (the defensive-copy contract).
func TestRunnerStreamsEveryCell(t *testing.T) {
	m := Matrix{Base: quickSpec(), Seeds: []uint64{1, 2, 3}}
	seen := map[int]int{}
	r := &Runner{Workers: 3, OnCell: func(cr CellResult) {
		seen[cr.Index]++ // serialized callback: no locking needed
		if cr.Result != nil && len(cr.Result.FinalParams) > 0 {
			cr.Result.FinalParams[0] = math.Inf(1)
		}
	}}
	results, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("OnCell saw %d cells, want 3", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("cell %d observed %d times", i, n)
		}
	}
	for _, cr := range results {
		if !math.IsInf(cr.Result.FinalParams[0], 1) {
			t.Error("results slice and callback see different CellResult values")
		}
	}
}

// TestRunnerCellErrors: a failing cell is reported both in its
// CellResult and in the joined error, and does not stop other cells.
func TestRunnerCellErrors(t *testing.T) {
	good := quickSpec()
	bad := quickSpec()
	bad.Workload = "nosuchworkload"
	results, err := (&Runner{Workers: 2}).RunCells([]Spec{good, bad})
	if !errors.Is(err, workload.ErrBadSpec) {
		t.Fatalf("joined error = %v", err)
	}
	if results[0].Err != nil || results[0].Result == nil {
		t.Errorf("good cell failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("bad cell reported no error")
	}
	if _, err := (&Runner{}).RunCells(nil); !errors.Is(err, ErrBadSpec) {
		t.Errorf("empty cell list: %v", err)
	}
}

// TestCompileRunsUnderAttack is the end-to-end smoke test: a spec
// compiled from pure strings trains and the Byzantine-resilient rule
// survives the attack.
func TestCompileRunsUnderAttack(t *testing.T) {
	s := quickSpec()
	s.Rounds = 60
	res := RunCell(nil, 0, s)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Result.Diverged {
		t.Error("krum diverged under gaussian attack")
	}
	if math.IsNaN(res.Result.FinalTestAccuracy) {
		t.Error("run with EvalEvery > 0 never evaluated")
	}
}
