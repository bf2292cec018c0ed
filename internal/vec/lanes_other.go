//go:build !amd64

package vec

// Non-amd64 platforms have no lane kernels: useLanes is constant false,
// so Axpy, MatMul, MatMulATB and NormalRun always run their Go loops: the
// row-kernel stubs below are never called, boxMullerLanes transforms
// nothing and medianLanes writes nothing.

func useLanes(int) bool { return false }

func axpyLanes(float64, []float64, []float64) {}

func matMulLanes(*Dense, []float64, int, int, *Dense) {}

func boxMullerLanes(_, _, _, _ []float64) int { return 0 }

func medianLanes([]float64, [][]float64) int { return 0 }
