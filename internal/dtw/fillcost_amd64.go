//go:build amd64

package dtw

// useFillAsm gates the vectorized cost and pack passes: AVX2 present and
// the OS saving YMM state. Detected once at init via CPUID/XGETBV (no
// cgo, no external deps).
var useFillAsm = x86HasAVX2()

// fillCostAVX2 is fillCost's inner loop, 4 lanes per step:
//
//	d := max(0, pLo[i]-qHi, qLo-pHi[i])
//	cost[i] = min(qInt, pInt[i]) * d
//
// Bit-identical to the scalar loop: VMAXPD/VMINPD with the freshly
// computed value as src1 and the running value as src2 return src2 on
// ties and unordered compares — exactly the scalar `if v > d { d = v }`
// / `if qInt < t { t = qInt }` branches, including NaN operands and the
// -0.0/+0.0 tie (the scalar keeps d = +0.0; so does MAXPD, because the
// operands compare equal and src2 is the accumulator). The multiply is
// the same single IEEE operation. n must be >= 4; the final partial
// vector is handled by re-running the last full lane-width at n-4,
// which rewrites identical values.
//
//go:noescape
func fillCostAVX2(qLo, qHi, qInt float64, pLo, pHi, pInt, cost *float64, n int)

// packStepsAVX2 is packColumn's AVX2 pass, bit-identical to packSteps: it
// packs the one-byte decisions at src, four to a byte, into the n bytes
// at dst, 32 cells per step. It reads 32·⌈n/8⌉ bytes of src and writes
// exactly n bytes of dst; n must be at least 1. Each
// step multiplies adjacent cell pairs by (1, 4) and sums them to 16-bit
// lanes (VPMADDUBSW), multiplies adjacent lanes by (1, 16) and sums them
// to 32-bit lanes (VPMADDWD), which leaves one packed byte in the low
// byte of each 32-bit lane, and narrows the eight lanes to eight bytes.
//
//go:noescape
func packStepsAVX2(dst, src *uint8, n int)

// x86HasAVX2 reports CPUID AVX2 with OS-enabled YMM state (OSXSAVE +
// XCR0 SSE|AVX bits).
func x86HasAVX2() bool
