package scenario

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"krum/internal/arrival"
)

// encodeCell renders a cell result in the stable store encoding — the
// level at which the sync≡async(τ=0) differential is asserted.
func encodeCell(t *testing.T, cr CellResult) string {
	t.Helper()
	if cr.Err != nil {
		t.Fatal(cr.Err)
	}
	b, err := json.Marshal(cr.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunnerArrivalSyncByteIdentical is the Runner level of the
// tentpole differential: a matrix with arrival "" (legacy), "sync" and
// "bounded(tau=0)" produces byte-identical results cell for cell.
func TestRunnerArrivalSyncByteIdentical(t *testing.T) {
	base := quickSpec()
	base.TrackSelection = true
	runGrid := func(arr string) []CellResult {
		b := base
		b.Arrival = arr
		m := Matrix{
			Base:  b,
			Rules: []string{"krum", "average"},
			Seeds: []uint64{5, 6},
		}
		out, err := (&Runner{Workers: 4}).Run(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	legacy := runGrid("")
	for _, arr := range []string{"sync", "bounded(tau=0)"} {
		got := runGrid(arr)
		if len(got) != len(legacy) {
			t.Fatalf("arrival %q: %d cells, want %d", arr, len(got), len(legacy))
		}
		for i := range legacy {
			if encodeCell(t, got[i]) != encodeCell(t, legacy[i]) {
				t.Errorf("arrival %q cell %d (%s): bytes differ from the legacy synchronous run",
					arr, i, legacy[i].Spec.Label())
			}
		}
	}
}

// TestRunnerAsyncDeterministicAcrossWorkerCounts extends the runner's
// core determinism contract to async cells: an arrival-sweeping matrix
// yields identical results on 1 and 8 workers — the arrival trace is a
// pure function of the cell spec, untouched by goroutine interleaving.
func TestRunnerAsyncDeterministicAcrossWorkerCounts(t *testing.T) {
	base := quickSpec()
	base.Incremental = true
	m := Matrix{
		Base:     base,
		Rules:    []string{"krum", "average"},
		Arrivals: []string{"sync", "bounded(tau=2)", "bernoulli(p=0.5,tau=4)"},
		Seeds:    []uint64{5, 6},
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
		t.Fatalf("result counts: %d vs %d (want %d)", len(serial), len(parallel), m.Size())
	}
	for i := range serial {
		if encodeCell(t, serial[i]) != encodeCell(t, parallel[i]) {
			t.Errorf("cell %d (%s): bytes differ across worker counts", i, serial[i].Spec.Label())
		}
	}
}

// TestCellBytesIndependentOfGOMAXPROCS is the whole-cell end of the
// distance build's one decision: n = 40 proposals of d = 10 001 are
// 7.8 Mflop a round, which vec fans out on min(GOMAXPROCS, 3)
// goroutines (internal/vec's TestSharesFromShape), so the three settings
// run the serial walk, two shares and three. The canonical result bytes
// must not move — synchronous, and on the incremental cache under a
// bernoulli arrival trace, where full-change rounds rebuild in place
// and the rest update rows.
func TestCellBytesIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cell := Spec{
		Workload:  "regression(in=10000)",
		Rule:      "krum",
		Attack:    "gaussian(sigma=200)",
		Schedule:  "const(gamma=0.01)",
		N:         40,
		F:         10,
		Rounds:    3,
		BatchSize: 4,
		Seed:      17,
	}
	async := cell
	async.Arrival, async.Incremental = "bernoulli(p=0.5,tau=4)", true
	for _, c := range []Spec{cell, async} {
		var serial string
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			got := encodeCell(t, RunCell(nil, 0, c))
			if procs == 1 {
				serial = got
			}
			if got != serial {
				t.Errorf("%s: result bytes under GOMAXPROCS %d differ from GOMAXPROCS 1", c.Label(), procs)
			}
		}
	}
}

// TestMatrixArrivalsAxis pins the expansion: the arrivals axis sits
// between attacks and fs, every cell carries its arrival value, and
// Size accounts for the new axis.
func TestMatrixArrivalsAxis(t *testing.T) {
	m := Matrix{
		Base:     quickSpec(),
		Rules:    []string{"krum", "average"},
		Arrivals: []string{"sync", "bounded(tau=3)"},
		Seeds:    []uint64{1, 2},
	}
	cells := m.Cells()
	if len(cells) != 8 || m.Size() != 8 {
		t.Fatalf("expanded %d cells (Size %d), want 8", len(cells), m.Size())
	}
	// rules × arrivals × seeds, seeds fastest: index = ((ir*2)+iarr)*2+is.
	for i, cell := range cells {
		wantArrival := m.Arrivals[(i/2)%2]
		if cell.Arrival != wantArrival {
			t.Errorf("cell %d: arrival %q, want %q", i, cell.Arrival, wantArrival)
		}
		if cell.Arrival != "" && !contains(cell.Name, "arrival="+cell.Arrival) {
			t.Errorf("cell %d: label %q does not name its arrival", i, cell.Name)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMatrixDeriveSeedsBackCompat pins the seed-derivation contract
// around the new axis: without an Arrivals axis the derivation is the
// original four-coordinate hash (pre-arrival grids keep their stored
// results), and with the axis declared the arrival coordinate
// decorrelates otherwise-identical cells.
func TestMatrixDeriveSeedsBackCompat(t *testing.T) {
	base := quickSpec()
	m := Matrix{
		Base:        base,
		Rules:       []string{"krum", "average"},
		Fs:          []int{0, 2},
		Seeds:       []uint64{5},
		DeriveSeeds: true,
	}
	// Replicate the documented pre-arrival derivation: SplitMix64 steps
	// over (workload, rule, attack, f) coordinates, seeds excluded.
	derive := func(seed uint64, coords ...int) uint64 {
		state := seed
		for _, c := range coords {
			state += 0x9E3779B97F4A7C15 * (uint64(c) + 1)
			z := state
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			state = z ^ (z >> 31)
		}
		return state
	}
	cells := m.Cells()
	idx := 0
	for ir := range m.Rules {
		for ifv := range m.Fs {
			want := derive(5, 0, ir, 0, ifv)
			if cells[idx].Seed != want {
				t.Errorf("cell %d: derived seed %d, want pre-arrival derivation %d", idx, cells[idx].Seed, want)
			}
			idx++
		}
	}

	withAxis := m
	withAxis.Arrivals = []string{"sync", "bounded(tau=3)"}
	axisCells := withAxis.Cells()
	seeds := map[uint64]bool{}
	for _, c := range axisCells {
		seeds[c.Seed] = true
	}
	if len(seeds) != len(axisCells) {
		t.Errorf("arrival coordinate failed to decorrelate: %d distinct seeds over %d cells", len(seeds), len(axisCells))
	}
}

// TestSpecArrivalJSONRoundTrip: the arrival field survives the config
// file round trip and stays omitted when empty (key stability).
func TestSpecArrivalJSONRoundTrip(t *testing.T) {
	s := quickSpec()
	s.Arrival = "bernoulli(p=0.5,tau=8)"
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
	s.Arrival = ""
	plain, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if contains(string(plain), "arrival") {
		t.Errorf("empty arrival serialized: %s", plain)
	}
}

// TestValidateArrival: malformed arrival specs fail Validate with the
// registry sentinel, before any training starts.
func TestValidateArrival(t *testing.T) {
	s := quickSpec()
	s.Arrival = "bounded(tau=-1)"
	if err := s.Validate(); !errors.Is(err, arrival.ErrBadArrival) {
		t.Errorf("error = %v, want ErrBadArrival", err)
	}
	s.Arrival = "bounded(tau=4)"
	if err := s.Validate(); err != nil {
		t.Errorf("valid arrival rejected: %v", err)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
