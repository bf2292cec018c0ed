package harness

import (
	"fmt"
	"io"

	"krum"
	"krum/attack"
	"krum/data"
	"krum/distsgd"
	"krum/internal/metrics"
	"krum/internal/vec"
	"krum/model"
)

// Prop43Result summarizes experiment E5: almost-sure convergence of the
// true gradient to the flat basin under Byzantine presence.
type Prop43Result struct {
	// Rounds is the evaluated round axis.
	Rounds []int
	// GradNorm is ‖∇Q(x_t)‖ measured on a large held-out batch at each
	// evaluated round (quadratic workload).
	GradNorm []float64
	// ParamError is ‖x_t − x*‖ against the planted ground truth.
	ParamError []float64
	// InitialGradNorm and FinalGradNorm bracket the trajectory.
	InitialGradNorm, FinalGradNorm float64
	// ReductionFactor is InitialGradNorm/FinalGradNorm.
	ReductionFactor float64
	// NonConvexGradNorm is the same trajectory on the non-convex MLP
	// cost (the generality Proposition 4.3 actually claims: reaching a
	// basin where the landscape is "almost flat", not a global
	// optimum).
	NonConvexGradNorm []float64
	// NonConvexReduction is the first/last ratio of that trajectory.
	NonConvexReduction float64
}

// RunProp43 executes E5 on the strongly convex workload (linear
// regression, where ∇Q is measurable exactly up to sampling noise and
// assumptions (i)–(v) of the proposition hold), with f Byzantine
// workers mounting the omniscient attack and a Robbins–Monro schedule.
func RunProp43(w io.Writer, scale Scale, seed uint64) (*Prop43Result, error) {
	const n, f = 15, 3
	const inDim, outDim = 12, 1
	rounds := pick(scale, 300, 1500)
	evalEvery := rounds / 15

	stream, err := data.NewLinearRegressionStream(inDim, outDim, 0.2, seed)
	if err != nil {
		return nil, err
	}
	m, err := model.NewLinearRegression(inDim, outDim, seed+1)
	if err != nil {
		return nil, err
	}
	truth := stream.TruthParams()

	// Large reference batch to measure the true gradient ∇Q(x_t).
	refX, refY, err := data.NewBatch(stream, vec.NewRNG(seed+99), 4000)
	if err != nil {
		return nil, err
	}
	gradNorm := refGradNorm(m, refX, refY)

	// Segmented execution: run evalEvery rounds at a time (fresh
	// randomness per segment), measuring ∇Q exactly between segments
	// on the reference batch.
	res := &Prop43Result{}
	err = segmented(distsgd.Config{
		Model:     m,
		Dataset:   stream,
		Rule:      krum.NewKrum(f),
		N:         n,
		F:         f,
		BatchSize: 16,
		Schedule:  krum.ScheduleInverseTStretched(0.3, 0.75, 40),
		Attack:    attack.Omniscient{Scale: 25},
	}, rounds, evalEvery, seed, func(params []float64, round int) error {
		g, err := gradNorm(params)
		res.Rounds = append(res.Rounds, round)
		res.GradNorm = append(res.GradNorm, g)
		res.ParamError = append(res.ParamError, vec.Dist(params, truth))
		return err
	})
	if err != nil {
		return nil, err
	}

	res.InitialGradNorm = res.GradNorm[0]
	res.FinalGradNorm = res.GradNorm[len(res.GradNorm)-1]
	if res.FinalGradNorm > 0 {
		res.ReductionFactor = res.InitialGradNorm / res.FinalGradNorm
	}

	// Second phase: the non-convex cost the proposition actually
	// targets — an MLP on the mixture task, same attackers and
	// schedule, measuring ‖∇Q‖ on a fixed reference batch.
	mix, err := data.NewGaussianMixture(3, 8, 4, 0.5, seed+7)
	if err != nil {
		return nil, err
	}
	mlp, err := model.NewMLP(8, []int{12}, 3, model.ActTanh, model.SoftmaxCrossEntropy{}, seed+8)
	if err != nil {
		return nil, err
	}
	mlpRefX, mlpRefY, err := data.NewBatch(mix, vec.NewRNG(seed+9), 2000)
	if err != nil {
		return nil, err
	}
	mlpGradNorm := refGradNorm(mlp, mlpRefX, mlpRefY)
	err = segmented(distsgd.Config{
		Model:     mlp,
		Dataset:   mix,
		Rule:      krum.NewKrum(f),
		N:         n,
		F:         f,
		BatchSize: 16,
		Schedule:  krum.ScheduleInverseTStretched(0.5, 0.75, 60),
		Attack:    attack.Omniscient{Scale: 25},
	}, rounds, evalEvery, seed+100, func(params []float64, _ int) error {
		g, err := mlpGradNorm(params)
		res.NonConvexGradNorm = append(res.NonConvexGradNorm, g)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("MLP: %w", err)
	}
	first := res.NonConvexGradNorm[0]
	last := res.NonConvexGradNorm[len(res.NonConvexGradNorm)-1]
	if last > 0 {
		res.NonConvexReduction = first / last
	}

	section(w, "E5 / Proposition 4.3 — convergence to the flat basin under attack")
	fmt.Fprintf(w, "quadratic cost (linear regression d=%d), n = %d, f = %d omniscient attackers,\nγ_t = 0.3/(1+t/40)^0.75 (Robbins–Monro)\n\n", m.Dim(), n, f)
	fig := &metrics.Figure{
		Title:  "‖∇Q(x_t)‖ and ‖x_t − x*‖ vs round",
		XLabel: "round",
		X:      xValues(res.Rounds),
		Series: []metrics.Series{
			{Name: "grad norm", Y: res.GradNorm},
			{Name: "param error", Y: res.ParamError},
		},
	}
	if err := fig.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nquadratic: gradient norm reduced ×%.3g (%.4g → %.4g)\n",
		res.ReductionFactor, res.InitialGradNorm, res.FinalGradNorm)
	fmt.Fprintf(w, "non-convex (MLP, d=%d, tanh): ‖∇Q‖ %.4g → %.4g (×%.3g) under the same attack —\nthe parameter vector reaches the \"almost flat\" basin the proposition promises.\n",
		mlp.Dim(), res.NonConvexGradNorm[0], res.NonConvexGradNorm[len(res.NonConvexGradNorm)-1], res.NonConvexReduction)
	return res, nil
}

// refGradNorm returns ‖∇Q(params)‖ for m's architecture on the fixed
// reference batch (x, y), measured on a private clone of m.
func refGradNorm(m model.Model, x, y *vec.Dense) func(params []float64) (float64, error) {
	probe := m.Clone()
	grad := make([]float64, m.Dim())
	return func(params []float64) (float64, error) {
		if err := probe.SetParams(params); err != nil {
			return 0, err
		}
		_, err := probe.Gradient(grad, x, y)
		return vec.Norm(grad), err
	}
}
