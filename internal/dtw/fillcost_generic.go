//go:build !amd64

package dtw

// Non-amd64 builds always take fillCost's scalar loop and packColumn's
// portable packSteps.
const useFillAsm = false

func fillCostAVX2(qLo, qHi, qInt float64, pLo, pHi, pInt, cost *float64, n int) {
	panic("dtw: fillCostAVX2 without amd64")
}

func packStepsAVX2(dst, src *uint8, n int) {
	panic("dtw: packStepsAVX2 without amd64")
}
