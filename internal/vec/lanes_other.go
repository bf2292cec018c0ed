//go:build !amd64

package vec

// Non-amd64 platforms have no lane kernels: useLanes is constant false,
// so Axpy, accumulateRows and NormalRun always run their Go loops: the
// row-kernel stubs below are never called, and boxMullerLanes
// transforms nothing.

func useLanes(int) bool { return false }

func axpyLanes(float64, []float64, []float64) {}

func accumulateRowsLanes([]float64, []float64, int, int, *Dense) {}

func boxMullerLanes(_, _, _, _ []float64) int { return 0 }
