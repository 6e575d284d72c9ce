package tensor

// quantizeFP16AVX2 quantizes src[0:n] into dst eight elements at a time
// (n a multiple of 8) and returns how many it did: it stops before the
// first block holding an element outside the kernel's two vector cases.
//
//go:noescape
func quantizeFP16AVX2(dst, src *float32, n int) int

// quantizeFP16Blocks runs the AVX2 kernel over the leading 8-element
// blocks of src and returns how many elements it quantized into dst.
func quantizeFP16Blocks(dst, src []float32) int {
	n := len(src) &^ 7
	if !hasAVX2 || n == 0 {
		return 0
	}
	return quantizeFP16AVX2(&dst[0], &src[0], n)
}
