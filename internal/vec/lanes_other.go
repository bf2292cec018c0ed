//go:build !amd64

package vec

// Non-amd64 platforms have no row kernels: useLanes is constant false,
// so Axpy and accumulateRows always run their Go loops and the two
// stubs below are never called.

func useLanes(int) bool { return false }

func axpyLanes(float64, []float64, []float64) {}

func accumulateRowsLanes([]float64, []float64, int, int, *Dense) {}
