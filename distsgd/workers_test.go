package distsgd

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"krum/data"
	"krum/internal/vec"
	"krum/model"
)

// sameData returns n copies of ds: WorkerData that gives every correct
// worker the default distribution.
func sameData(ds data.Dataset, n int) []data.Dataset {
	out := make([]data.Dataset, n)
	for i := range out {
		out[i] = ds
	}
	return out
}

// proposalRecorder averages, keeping a copy of the last round's
// proposals: with Rounds = 1 and F = 0 that is every correct worker's
// gradient at the initial parameters.
type proposalRecorder struct{ last *[][]float64 }

func (proposalRecorder) Name() string { return "recorder" }

func (r proposalRecorder) Aggregate(dst []float64, vectors [][]float64) error {
	*r.last = vec.CloneAll(vectors)
	vec.Mean(dst, vectors)
	return nil
}

// firstRoundGradients runs one round of cfg with no Byzantine worker
// and returns the correct workers' proposals and reported loss.
func firstRoundGradients(t *testing.T, cfg Config) ([][]float64, float64) {
	t.Helper()
	var grads [][]float64
	cfg.F, cfg.Rounds, cfg.EvalEvery = 0, 1, 0
	cfg.Rule = proposalRecorder{&grads}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(grads) != cfg.N {
		t.Fatalf("%d proposals, want %d", len(grads), cfg.N)
	}
	return grads, res.History[0].TrainLoss
}

// rejectsWith runs cfg and checks that Run refuses it with ErrConfig
// and an error naming the fault.
func rejectsWith(t *testing.T, cfg Config, want string) {
	t.Helper()
	_, err := Run(cfg)
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to name %q", err, want)
	}
}

// TestCorrectWorkerSetupValidation: the correct workers need a model,
// a dataset, at least one worker and a positive batch, and Run names
// the missing one.
func TestCorrectWorkerSetupValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"nil model", func(c *Config) { c.Model = nil }, "nil model"},
		{"nil dataset", func(c *Config) { c.Dataset = nil }, "nil dataset"},
		{"zero workers", func(c *Config) { c.N, c.F = 0, 0 }, "n = 0"},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }, "batch size = 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := quickConfig(t)
			tt.mutate(&cfg)
			rejectsWith(t, cfg, tt.want)
		})
	}
}

// TestRunRejectsBadWorkerData: WorkerData must hold one dataset per
// correct worker, each shaped like Dataset, and the model and batch
// checks still apply when it is set.
func TestRunRejectsBadWorkerData(t *testing.T) {
	wide, err := data.NewGaussianMixture(3, 7, 4, 0.5, 1) // different dim
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no worker datasets", func(c *Config) { c.WorkerData = []data.Dataset{} }, "0 worker datasets"},
		{"short worker data", func(c *Config) { c.WorkerData = c.WorkerData[1:] }, "want n−f"},
		{"nil worker dataset", func(c *Config) { c.WorkerData[3] = nil }, "worker 3 dataset is nil"},
		{"mis-shaped worker dataset", func(c *Config) { c.WorkerData[3] = wide }, "worker 3 dataset shape"},
		{"nil model", func(c *Config) { c.Model = nil }, "nil model"},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }, "batch size = 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := quickConfig(t)
			cfg.WorkerData = sameData(cfg.Dataset, cfg.N-cfg.F)
			tt.mutate(&cfg)
			rejectsWith(t, cfg, tt.want)
		})
	}
}

// TestCorrectWorkersDeterministicPerSeed: two runs with one seed give
// every correct worker the same gradient and the same reported loss,
// bit for bit.
func TestCorrectWorkersDeterministicPerSeed(t *testing.T) {
	cfg := quickConfig(t)
	cfg.N, cfg.BatchSize, cfg.Seed = 4, 8, 99
	g1, l1 := firstRoundGradients(t, cfg)
	g2, l2 := firstRoundGradients(t, cfg)
	if l1 != l2 {
		t.Errorf("losses differ: %v vs %v", l1, l2)
	}
	for i := range g1 {
		if !vec.ApproxEqual(g1[i], g2[i], 0) {
			t.Errorf("worker %d gradients differ across identically seeded runs", i)
		}
	}
}

func TestCorrectWorkersDrawIndependentBatches(t *testing.T) {
	cfg := quickConfig(t)
	cfg.N = 5
	grads, loss := firstRoundGradients(t, cfg)
	if loss <= 0 {
		t.Errorf("loss = %v", loss)
	}
	// Workers draw independent batches, so their gradient estimates
	// must differ.
	for i := range grads {
		if !vec.AllFinite(grads[i]) {
			t.Errorf("worker %d produced non-finite gradient", i)
		}
		for j := i + 1; j < len(grads); j++ {
			if vec.ApproxEqual(grads[i], grads[j], 1e-12) {
				t.Errorf("workers %d and %d returned identical gradients", i, j)
			}
		}
	}
}

func TestCorrectWorkersUnbiasedTowardTrueGradient(t *testing.T) {
	// On a linear regression stream, the average of many worker
	// estimates approximates the server-side full-batch gradient.
	ds, err := data.NewLinearRegressionStream(3, 1, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLinearRegression(3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(t)
	cfg.Model, cfg.Dataset, cfg.N, cfg.BatchSize = m, ds, 50, 64
	grads, _ := firstRoundGradients(t, cfg)
	meanGrad := make([]float64, m.Dim())
	vec.Mean(meanGrad, grads)
	// Reference: one huge batch on the caller's model, which Run never
	// mutates.
	bx, by, err := data.NewBatch(ds, vec.NewRNG(12345), 20000)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, m.Dim())
	if _, err := m.Gradient(ref, bx, by); err != nil {
		t.Fatal(err)
	}
	if cos := cosine(meanGrad, ref); cos < 0.99 {
		t.Errorf("mean worker gradient misaligned with true gradient: cos = %v", cos)
	}
}

// cosine returns the cosine similarity of a and b.
func cosine(a, b []float64) float64 {
	return vec.Dot(a, b) / (vec.Norm(a)*vec.Norm(b) + 1e-12)
}

func TestWorkersOnDisjointClassesDisagree(t *testing.T) {
	// Two workers on disjoint class pairs of a 4-class mixture: their
	// gradient estimates differ systematically (the skew E7 exploits),
	// far more than two i.i.d. workers' do.
	base, err := data.NewGaussianMixture(4, 6, 5, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.PartitionClasses(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewSoftmaxClassifier(6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(t)
	cfg.Model, cfg.Dataset, cfg.N, cfg.BatchSize = m, base, 2, 64
	iid, _ := firstRoundGradients(t, cfg)
	cfg.WorkerData = []data.Dataset{parts[0], parts[1]}
	grads, loss := firstRoundGradients(t, cfg)
	if loss <= 0 {
		t.Errorf("loss %v", loss)
	}
	cos, iidCos := cosine(grads[0], grads[1]), cosine(iid[0], iid[1])
	if cos > 0.95 || cos >= iidCos {
		t.Errorf("workers on disjoint classes: cos=%v, i.i.d. workers: cos=%v", cos, iidCos)
	}
}

// TestWorkerDataOfOneDatasetIsTheDefault: n−f copies of Dataset as
// WorkerData is the nil default, byte for byte.
func TestWorkerDataOfOneDatasetIsTheDefault(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Rounds, cfg.EvalEvery = 20, 10
	cfg.AttackSpec = "gaussian(sigma=200)"
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WorkerData = sameData(cfg.Dataset, cfg.N-cfg.F)
	copies, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stableBytes(t, plain), stableBytes(t, copies)) {
		t.Error("WorkerData of n−f copies of Dataset changed the result bytes")
	}
}
