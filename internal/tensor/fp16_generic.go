//go:build !amd64

package tensor

// quantizeFP16Blocks has no vector kernel off amd64: QuantizeFP16Slice
// quantizes every element with the scalar code.
func quantizeFP16Blocks(dst, src []float32) int { return 0 }
