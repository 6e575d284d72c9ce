//go:build !amd64

package tensorops

// tanhBlocks has no vector kernel off amd64: tanhSlice runs tanh32 on
// every element.
func tanhBlocks(dst, src []float32) int { return 0 }
