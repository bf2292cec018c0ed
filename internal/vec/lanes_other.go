//go:build !amd64

package vec

// Non-amd64 platforms have no lane kernels: useLanes is constant false,
// so Axpy, accumulateRows and FillNormal always run their Go loops and
// the stubs below are never called.

func useLanes(int) bool { return false }

func axpyLanes(float64, []float64, []float64) {}

func accumulateRowsLanes([]float64, []float64, int, int, *Dense) {}

func boxMullerLanes(_, _, _, _ *[normalBatch]float64, _ int) {}
