package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenCells is the fixed table TestGoldenResultBytes pins: the paper's
// experiment shape under every rule family and the three attacks the
// figures use, the asynchronous incremental path, and one cell per
// other workload (softmax, logistic, conv, regression, class-filtered,
// a second image size), so that every sampler, model and aggregation
// loop contributes bytes to some hash.
func goldenCells() []Spec {
	mnist := Spec{
		Workload:       "mnist(size=16,hidden=48)",
		Schedule:       "const(gamma=0.1)",
		N:              20,
		F:              6,
		Rounds:         8,
		BatchSize:      16,
		Seed:           7,
		EvalEvery:      4,
		EvalBatch:      64,
		TrackSelection: true,
	}
	var cells []Spec
	// bulyan needs n ≥ 4f+3, so it declares f=4 on the n=20, f=6
	// cluster; the others take their f from the cluster shape.
	for _, rule := range []string{
		"krum", "multikrum(m=10)", "coordmedian", "trimmedmean(b=6)", "bulyan(f=4)", "geomedian", "average",
	} {
		for _, atk := range []string{"none", "gaussian(sigma=200)", "omniscient(scale=20)"} {
			c := mnist
			c.Rule, c.Attack = rule, atk
			c.Name = "mnist/" + rule + "/" + atk
			cells = append(cells, c)
		}
	}
	async := mnist
	async.Rule, async.Attack = "krum", "gaussian(sigma=200)"
	async.Arrival, async.Incremental = "bernoulli(p=0.5,tau=4)", true
	async.Name = "mnist/krum/gaussian/async-incremental"
	cells = append(cells, async)

	for _, wl := range []string{
		"gmm(k=3,dim=6,radius=4,sigma=0.5)",
		"spambase",
		"mnistconv(size=12)",
		"regression(in=20)",
		"noniid(base=mnist(size=10,hidden=16),classes=3)",
		"mnist(size=28,hidden=30)",
	} {
		cells = append(cells, Spec{
			Name:      wl + "/krum/gaussian",
			Workload:  wl,
			Rule:      "krum",
			Attack:    "gaussian(sigma=200)",
			Schedule:  "const(gamma=0.1)",
			N:         9,
			F:         2,
			Rounds:    8,
			BatchSize: 8,
			Seed:      11,
			EvalEvery: 4,
			EvalBatch: 64,
		})
	}
	return cells
}

// TestGoldenResultBytes pins the stable JSON of whole cells across
// commits: a change that moves one result byte without a store.Version
// bump would let the store serve results the current code no longer
// computes. `make tier-tests` runs it under both kernel tiers, which
// compute one accumulation order, "fma4". The hashes change only
// together with store.Version; a failing run logs the file as the
// current code would write it.
func TestGoldenResultBytes(t *testing.T) {
	path := filepath.Join("testdata", "golden_results_fma4.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	got := make(map[string]string)
	for _, cell := range goldenCells() {
		res, err := ComputeCell(cell)
		if err != nil {
			t.Fatalf("%s: %v", cell.Name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", cell.Name, err)
		}
		sum := sha256.Sum256(b)
		got[cell.Name] = hex.EncodeToString(sum[:])
		if want[cell.Name] != got[cell.Name] {
			t.Errorf("%s: result hash %s, golden %q", cell.Name, got[cell.Name], want[cell.Name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cells, the table has %d", path, len(want), len(got))
	}
	if t.Failed() {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s from the current code:\n%s", path, b)
	}
}
