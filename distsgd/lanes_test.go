package distsgd

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"krum/data"
	"krum/internal/vec"
	"krum/model"
)

// TestLaneCountFromShape pins a cohort's width, vec.Width over a
// round's 3·k·nc·batch·d multiply-adds, for the shapes the repo runs.
// At k = 1 it is the lane count of Run.
func TestLaneCountFromShape(t *testing.T) {
	for _, c := range []struct{ k, nc, batch, d, procs, want int }{
		// grid_small and service_overlap cells: 3.5 k multiply-adds a round.
		{1, 7, 8, 21, 1, 1}, {1, 7, 8, 21, 2, 1}, {1, 7, 8, 21, 4, 1}, {1, 7, 8, 21, 64, 1},
		// grid_small's six-cell cohorts stay on one goroutine.
		{6, 7, 8, 21, 2, 1}, {6, 7, 8, 21, 64, 1},
		// Quick-scale figure cells: 0.94 M, under one goroutine's worth.
		{1, 11, 16, 1786, 2, 1}, {1, 11, 16, 1786, 64, 1},
		// train_mnist_attack cells: 8.6 M, the work cap binds at 4.
		{1, 14, 16, 12_826, 1, 1}, {1, 14, 16, 12_826, 2, 2}, {1, 14, 16, 12_826, 3, 3},
		{1, 14, 16, 12_826, 4, 4}, {1, 14, 16, 12_826, 64, 4},
		// Its twelve-cell cohort takes every slot up to 49.
		{12, 14, 16, 12_826, 2, 2}, {12, 14, 16, 12_826, 64, 49},
		// The workers bind.
		{1, 2, 1024, 12_826, 64, 2}, {3, 2, 1024, 12_826, 64, 6},
		// A shape that does not validate runs on one.
		{1, 0, 16, 12_826, 64, 1}, {1, 14, 0, 12_826, 64, 1},
	} {
		if got := cohortWidth(c.procs, c.k, c.nc, c.batch, c.d); got != c.want {
			t.Errorf("k=%d nc=%d batch=%d d=%d procs=%d: width %d, want %d", c.k, c.nc, c.batch, c.d, c.procs, got, c.want)
		}
	}
}

// probeLog is what a Run made of a laneProbe and its clones.
type probeLog struct {
	mu      sync.Mutex
	clones  int
	batches map[*vec.Dense]bool
	// goroutines holds the id of every goroutine that computed a
	// gradient.
	goroutines map[uint64]bool
}

func newProbeLog() *probeLog {
	return &probeLog{batches: map[*vec.Dense]bool{}, goroutines: map[uint64]bool{}}
}

// laneProbe is a model.Model of any dimension whose gradient costs
// nothing: it logs its clones, the batch buffers it is handed and the
// goroutines that call it.
type laneProbe struct {
	params []float64
	log    *probeLog
}

func (p *laneProbe) Dim() int { return len(p.params) }

func (p *laneProbe) Params(dst []float64) []float64 {
	return append(dst[:0], p.params...)
}

func (p *laneProbe) SetParams(q []float64) error {
	copy(p.params, q)
	return nil
}

func (p *laneProbe) Gradient(dst []float64, x, _ *vec.Dense) (float64, error) {
	p.log.mu.Lock()
	p.log.batches[x] = true
	p.log.goroutines[goroutineID()] = true
	p.log.mu.Unlock()
	for j := range dst {
		dst[j] = x.Data[j%len(x.Data)]
	}
	return 1, nil
}

func (p *laneProbe) Loss(*vec.Dense, *vec.Dense) (float64, error) { return 1, nil }

func (p *laneProbe) Predict(x *vec.Dense) (*vec.Dense, error) { return vec.NewDense(x.Rows, 1), nil }

func (p *laneProbe) Clone() model.Model {
	p.log.mu.Lock()
	p.log.clones++
	p.log.mu.Unlock()
	return &laneProbe{params: append([]float64(nil), p.params...), log: p.log}
}

// goroutineID returns the calling goroutine's id, the number in the
// first line of its stack trace ("goroutine 18 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	line := string(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunHoldsOneReplicaPerLane: a Run clones one replica per lane
// (lane 0 also evaluates, so there is no server model), hands the
// model K batch buffers, and computes on the calling goroutine plus
// K − 1 goroutines started each round — none
// at all on grid_small's and service_overlap's shape, whatever
// GOMAXPROCS is, and min(GOMAXPROCS, 4) lanes on train_mnist_attack's.
func TestRunHoldsOneReplicaPerLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ds, err := data.NewGaussianMixture(3, 6, 4, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for _, shape := range []struct {
		name           string
		n, f, batch, d int
		lanes          func(procs int) int
	}{
		{"grid_small", 9, 2, 8, 21, func(int) int { return 1 }},
		{"train_mnist_attack", 20, 6, 16, 12_826, func(procs int) int { return min(procs, 4) }},
	} {
		for procs := 1; procs <= 4; procs++ {
			runtime.GOMAXPROCS(procs)
			log := newProbeLog()
			cfg := Config{
				Model:        &laneProbe{params: make([]float64, shape.d), log: log},
				Dataset:      ds,
				RuleSpec:     "average",
				ScheduleSpec: "const(gamma=0.1)",
				N:            shape.n,
				F:            shape.f,
				BatchSize:    shape.batch,
				Rounds:       rounds,
				Seed:         5,
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			k := shape.lanes(procs)
			if log.clones != k {
				t.Errorf("%s, GOMAXPROCS %d: %d clones, want %d replicas", shape.name, procs, log.clones, k)
			}
			if len(log.batches) != k {
				t.Errorf("%s, GOMAXPROCS %d: %d batch buffers, want %d", shape.name, procs, len(log.batches), k)
			}
			if !log.goroutines[goroutineID()] || len(log.goroutines) != 1+rounds*(k-1) {
				t.Errorf("%s, GOMAXPROCS %d: gradients on %d goroutines (caller among them: %v), want the caller and %d started",
					shape.name, procs, len(log.goroutines), log.goroutines[goroutineID()], rounds*(k-1))
			}
		}
	}
}

// TestLanesAboveThresholdBitIdentical runs a train_mnist_attack-shaped
// cell, whose rounds fan out on min(GOMAXPROCS, 4) lanes, at the test's
// GOMAXPROCS and at 1: the bytes must agree. Under `make race`'s -cpu
// 1,4 pass this is the test that races the lane goroutines against the
// round loop that reads the workers' buffers.
func TestLanesAboveThresholdBitIdentical(t *testing.T) {
	ds, err := data.NewSyntheticMNIST(16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewMLP(ds.Dim(), []int{48}, 10, model.ActReLU, model.SoftmaxCrossEntropy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:        m,
		Dataset:      ds,
		RuleSpec:     "krum",
		AttackSpec:   "gaussian(sigma=200)",
		ScheduleSpec: "const(gamma=0.1)",
		N:            20,
		F:            6,
		BatchSize:    16,
		Rounds:       2,
		Seed:         3,
	}
	procs := runtime.GOMAXPROCS(0)
	t.Logf("GOMAXPROCS %d: %d lanes", procs, cohortWidth(procs, 1, cfg.N-cfg.F, cfg.BatchSize, m.Dim()))
	fanned, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stableBytes(t, fanned), stableBytes(t, serial)) {
		t.Errorf("result bytes under GOMAXPROCS %d differ from GOMAXPROCS 1", procs)
	}
}

// markedData is a dataset whose samples carry its worker's index as
// their first feature.
type markedData struct{ id float64 }

func (markedData) Dim() int                            { return 6 }
func (markedData) OutDim() int                         { return 3 }
func (d markedData) Sample(_ *vec.RNG, x, _ []float64) { x[0] = d.id }

var errProbe = errors.New("probe gradient failed")

// failingProbe is a laneProbe whose gradient fails on the batches of
// the workers it names.
type failingProbe struct {
	*laneProbe
	fail map[float64]bool
}

func (p failingProbe) Gradient(dst []float64, x, y *vec.Dense) (float64, error) {
	if p.fail[x.Data[0]] {
		return 0, errProbe
	}
	return p.laneProbe.Gradient(dst, x, y)
}

func (p failingProbe) Clone() model.Model {
	return failingProbe{p.laneProbe.Clone().(*laneProbe), p.fail}
}

// TestRunNamesFirstFailingWorker: when workers 6 and 9 fail, Run names
// worker 6 on one lane and on four, where 9 runs on lane 1 and 6 on
// lane 2.
func TestRunNamesFirstFailingWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		workerData := make([]data.Dataset, 14)
		for i := range workerData {
			workerData[i] = markedData{float64(i)}
		}
		probe := &laneProbe{params: make([]float64, 12_826), log: newProbeLog()}
		_, err := Run(Config{
			Model:        failingProbe{probe, map[float64]bool{6: true, 9: true}},
			Dataset:      markedData{-1},
			WorkerData:   workerData,
			RuleSpec:     "average",
			ScheduleSpec: "const(gamma=0.1)",
			N:            20,
			F:            6,
			BatchSize:    16,
			Rounds:       1,
		})
		if !errors.Is(err, errProbe) || !strings.Contains(err.Error(), "worker 6:") {
			t.Errorf("GOMAXPROCS %d: err = %v, want worker 6's", procs, err)
		}
	}
}
