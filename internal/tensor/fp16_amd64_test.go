package tensor

import (
	"math"
	"testing"
)

// TestQuantizeFP16BlocksStopsAtScalarBlock pins the AVX2 kernel's
// contract with QuantizeFP16Slice: it does whole 8-blocks whose lanes are
// all normal-range or tiny, and stops before the first block holding any
// other value.
func TestQuantizeFP16BlocksStopsAtScalarBlock(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 kernel on this CPU")
	}
	src := make([]float32, 43)
	for i := range src {
		src[i] = float32(i) - 20 // includes 0, a tiny lane
	}
	dst := make([]float32, len(src))
	if got := quantizeFP16Blocks(dst, src); got != 40 {
		t.Fatalf("all-vector input: did %d elements, want 40", got)
	}
	for _, bad := range []float32{float32(math.Inf(1)), 1e-6, 70000} {
		for pos := 0; pos < 40; pos++ {
			s := append([]float32(nil), src...)
			s[pos] = bad
			if got := quantizeFP16Blocks(dst, s); got != pos&^7 {
				t.Fatalf("%v at %d: did %d elements, want %d", bad, pos, got, pos&^7)
			}
		}
	}
}
