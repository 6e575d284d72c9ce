package tensorops

import "repro/internal/tensor"

// PerfDirection selects whether perforated convolution skips output rows
// or output columns.
type PerfDirection int

const (
	PerfNone PerfDirection = iota
	PerfRows
	PerfCols
)

func (d PerfDirection) String() string {
	switch d {
	case PerfRows:
		return "row"
	case PerfCols:
		return "col"
	default:
		return "none"
	}
}

// Conv2DFilterSampling computes a convolution with the filter-sampling
// approximation (after Li et al.): 1 out of every `stride` filter elements
// is skipped, the same positions across all feature maps, starting at
// `offset`. Valid strides are 2, 3, 4 (50%, 33%, 25% skip rates) with
// offsets 0..stride-1, giving the paper's 9 knobs. The surviving elements
// are rescaled by stride/(stride-1) so the expected output magnitude is
// preserved, mirroring the rescaling used for reduction sampling.
func Conv2DFilterSampling(x, w *tensor.Tensor, p ConvParams, stride, offset int, prec Precision) *tensor.Tensor {
	return Conv2DFilterSamplingFused(x, w, p, stride, offset, prec, Epilogue{})
}

// Conv2DFilterSamplingFused is Conv2DFilterSampling with a fused
// bias/activation epilogue. The GEMM runs on the reduced K: the filter is
// compacted to its kept elements (see SampleFilter) and im2col emits only
// the matching rows. For weights marked cacheable the compacted filter is
// memoized in the pack cache, and the cached copy is marked cacheable in
// turn so its FP16 quantization memoizes as well.
func Conv2DFilterSamplingFused(x, w *tensor.Tensor, p ConvParams, stride, offset int, prec Precision, ep Epilogue) *tensor.Tensor {
	if stride < 2 || stride > 4 {
		panicShape("FilterSampling", "stride %d not in {2,3,4}", stride)
	}
	if offset < 0 || offset >= stride {
		panicShape("FilterSampling", "offset %d not in [0,%d)", offset, stride)
	}
	return convolve(x, w, p, prec, convSkip{sampStride: stride, sampOffset: offset}, ep)
}

// SampleFilter returns the sampled filter in the compact form the GEMM
// multiplies: per output filter (flattened over Ci×Kh×Kw), every
// stride-th element starting at offset is dropped and the survivors are
// rescaled by stride/(stride-1). The result is (Co × kept): the dropped
// elements are not stored, so the convolution never multiplies them. At
// least one element per filter must survive.
func SampleFilter(w *tensor.Tensor, stride, offset int) *tensor.Tensor {
	co := w.Dim(0)
	fvol := w.Elems() / co
	ks := keptIndices(fvol, stride, offset)
	out := tensor.New(co, len(ks))
	scale := float32(stride) / float32(stride-1)
	wd, od := w.Data(), out.Data()
	for f := 0; f < co; f++ {
		src, dst := wd[f*fvol:(f+1)*fvol], od[f*len(ks):(f+1)*len(ks)]
		for j, i := range ks {
			dst[j] = src[i] * scale
		}
	}
	return out
}

// Conv2DPerforated computes a convolution with the perforation
// approximation (after Figurnov et al.): 1 out of every `stride` output
// rows (or columns) is not computed and is instead filled with the
// nearest-neighbor average of computed elements. Valid strides are 2, 3, 4
// with offsets 0..stride-1 and two directions, giving the paper's 18 knobs.
func Conv2DPerforated(x, w *tensor.Tensor, p ConvParams, dir PerfDirection, stride, offset int, prec Precision) *tensor.Tensor {
	return Conv2DPerforatedFused(x, w, p, dir, stride, offset, prec, Epilogue{})
}

// Conv2DPerforatedFused is Conv2DPerforated with the bias/activation/FP16
// epilogue fused into the pass that interpolates each output plane. Only
// the kept rows or columns are computed: im2col and the GEMM run over the
// kept positions alone. Bit-identical to the full convolution followed by
// interpolation, FP16 writeback and ApplyEpilogue.
func Conv2DPerforatedFused(x, w *tensor.Tensor, p ConvParams, dir PerfDirection, stride, offset int, prec Precision, ep Epilogue) *tensor.Tensor {
	if dir != PerfRows && dir != PerfCols {
		panicShape("Perforated", "direction must be rows or cols")
	}
	if stride < 2 || stride > 4 {
		panicShape("Perforated", "stride %d not in {2,3,4}", stride)
	}
	if offset < 0 || offset >= stride {
		panicShape("Perforated", "offset %d not in [0,%d)", offset, stride)
	}
	return convolve(x, w, p, prec, convSkip{perfDir: dir, perfStride: stride, perfOffset: offset}, ep)
}
