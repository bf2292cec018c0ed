package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"krum"
	"krum/internal/metrics"
	"krum/internal/stats"
	"krum/internal/vec"
)

// Lemma41Point is one (n, d) cell of the cost-scaling experiment.
type Lemma41Point struct {
	// N and D are the worker count and dimension.
	N, D int
	// NanosPerOp is the measured Krum aggregation time.
	NanosPerOp float64
}

// Lemma41Result summarizes experiment E3: measured Krum cost against
// the Lemma 4.1 model time = c·n²·d.
type Lemma41Result struct {
	// Points holds the sweep measurements.
	Points []Lemma41Point
	// R2 is the goodness of the least-squares fit of time against
	// n²·d (1 means the O(n²·d) model explains all variance).
	R2 float64
	// NanosPerN2D is the fitted constant c.
	NanosPerN2D float64
}

// lemma41MinR2 is the fit quality at which the sweep reports that the
// O(n²·d) model explains its timings.
const lemma41MinR2 = 0.95

// RunLemma41 executes E3: the Krum cost sweep over n and d. At Full
// scale the grid (n ≤ 80: every shape's vectors fit L2 together) is
// followed by n = 200 and n = 1000 at d = 1000, where they do not: a
// constant that holds only while the working set is cache-resident is
// not the constant of the lemma, and a fit over n ≤ 80 cannot tell. The
// sweep runs on a single core (GOMAXPROCS 1, restored on return): the
// lemma counts work, and the larger Full shapes' builds would otherwise
// fan out and put a step in the elapsed-time column.
func RunLemma41(w io.Writer, scale Scale, seed uint64) (*Lemma41Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := vec.NewRNG(seed)
	var ns, ds []int
	if scale == Full {
		ns = []int{5, 10, 20, 40, 80}
		ds = []int{100, 1000, 10000}
	} else {
		ns = []int{5, 10, 20}
		ds = []int{100, 1000}
	}
	var shapes []Lemma41Point
	for _, n := range ns {
		for _, d := range ds {
			shapes = append(shapes, Lemma41Point{N: n, D: d})
		}
	}
	if scale == Full {
		shapes = append(shapes, Lemma41Point{N: 200, D: 1000}, Lemma41Point{N: 1000, D: 1000})
	}

	res := &Lemma41Result{}
	var xs, ys []float64
	for _, shape := range shapes {
		n, d := shape.N, shape.D
		vectors := make([][]float64, n)
		for i := range vectors {
			vectors[i] = rng.NewNormal(d, 0, 1)
		}
		rule := krum.NewKrum((n - 3) / 2)
		dst := make([]float64, d)

		// Calibrate repetitions to ≈ 20ms of work (a call under the
		// clock's resolution times as 0, hence the extra nanosecond).
		reps := 1
		start := time.Now()
		if err := rule.Aggregate(dst, vectors); err != nil {
			return nil, fmt.Errorf("n=%d d=%d: %w", n, d, err)
		}
		per := time.Since(start)
		if per < 20*time.Millisecond {
			reps = min(int(20*time.Millisecond/(per+time.Nanosecond))+1, 2000)
		}
		start = time.Now()
		for r := 0; r < reps; r++ {
			if err := rule.Aggregate(dst, vectors); err != nil {
				return nil, fmt.Errorf("n=%d d=%d: %w", n, d, err)
			}
		}
		nanos := float64(time.Since(start).Nanoseconds()) / float64(reps)
		res.Points = append(res.Points, Lemma41Point{N: n, D: d, NanosPerOp: nanos})
		xs = append(xs, float64(n)*float64(n)*float64(d))
		ys = append(ys, nanos)
	}
	_, slope, r2, err := stats.LinearFit(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("fitting cost model: %w", err)
	}
	res.R2 = r2
	res.NanosPerN2D = slope

	section(w, "E3 / Lemma 4.1 — Krum cost is O(n²·d) (single core)")
	tbl := metrics.NewTable("n", "d", "ns/op", "ns/(n²·d)", "÷ fitted c")
	for _, p := range res.Points {
		c := p.NanosPerOp / (float64(p.N) * float64(p.N) * float64(p.D))
		tbl.AddRowf(p.N, p.D, p.NanosPerOp, c, c/res.NanosPerN2D)
	}
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nleast-squares fit time ≈ %.4g ns · n²·d, r² = %.4f\n", res.NanosPerN2D, res.R2)
	if res.R2 >= lemma41MinR2 {
		fmt.Fprintf(w, "the n²·d model explains the timings (r² ≥ %g)\n", lemma41MinR2)
	} else {
		fmt.Fprintf(w, "the timings miss the n²·d model (r² < %g): a loaded host, or a kernel that stopped scaling\n", lemma41MinR2)
	}
	return res, nil
}
