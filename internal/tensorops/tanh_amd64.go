package tensorops

import "repro/internal/tensor"

// tanhAVX2 writes tanh32(src[i]) to dst[i] for i < n, four lanes at a
// time (n a multiple of 4).
//
//go:noescape
func tanhAVX2(dst, src *float32, n int)

// tanhConsts holds tanh32's float64 constants, each repeated across the
// four lanes tanh_amd64.s reads as one 32-byte memory operand, at the
// offsets named there. They are the same constant expressions as in
// tanh32, so both round them to the same float64.
var tanhConsts = [...][4]float64{
	splat4(tanhSat), splat4(invLn2), splat4(0.5), splat4(ln2Hi), splat4(ln2Lo),
	splat4(5040.0), splat4(1 / 720.0), splat4(1 / 120.0), splat4(1 / 24.0),
	splat4(1 / 6.0), splat4(1 / 2.0), splat4(1), splat4(2),
}

func splat4(v float64) [4]float64 { return [4]float64{v, v, v, v} }

// tanhBlocks runs the AVX2 kernel over the leading multiple of four
// elements of src and returns how many it wrote to dst.
func tanhBlocks(dst, src []float32) int {
	n := len(src) &^ 3
	if !tensor.HasAVX2() || n == 0 {
		return 0
	}
	tanhAVX2(&dst[0], &src[0], n)
	return n
}
