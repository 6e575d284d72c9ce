package tensorops

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// ConvParams carries the geometry of a 2-D convolution.
type ConvParams struct {
	StrideH, StrideW int
	PadH, PadW       int
	// Groups > 1 gives grouped convolution; Groups == input channels with
	// one filter per channel is the depthwise convolution MobileNet uses.
	Groups int
}

// Norm returns params with zero-value fields defaulted (stride 1, groups 1).
func (p ConvParams) Norm() ConvParams {
	if p.StrideH == 0 {
		p.StrideH = 1
	}
	if p.StrideW == 0 {
		p.StrideW = 1
	}
	if p.Groups == 0 {
		p.Groups = 1
	}
	return p
}

// Conv2D computes an exact 2-D convolution. x is (N,Ci,H,W), w is
// (Co,Ci/G,Kh,Kw); the result is (N,Co,Ho,Wo). With FP16 precision the
// operands and result pass through half-precision quantization.
func Conv2D(x, w *tensor.Tensor, p ConvParams, prec Precision) *tensor.Tensor {
	return convolve(x, w, p, prec, convSkip{}, Epilogue{})
}

// Conv2DFused is Conv2D with the bias/activation/FP16-writeback epilogue
// fused into the GEMM writeback: each output row (one output channel's
// spatial plane) gets bias, activation and quantization applied as it
// completes, instead of three whole-tensor clone-and-sweep passes
// afterwards. Bit-identical to the unfused chain.
func Conv2DFused(x, w *tensor.Tensor, p ConvParams, prec Precision, ep Epilogue) *tensor.Tensor {
	return convolve(x, w, p, prec, convSkip{}, ep)
}

// convSkip names the work an approximate convolution leaves out: one in
// every perfStride output rows or columns (perforation) and one in every
// sampStride filter elements (filter sampling). The zero value skips
// nothing — the exact convolution.
type convSkip struct {
	perfDir                PerfDirection
	perfStride, perfOffset int
	sampStride, sampOffset int
}

// convPlan is one convolution call's geometry together with the work it
// keeps: the output rows and columns it computes and the K rows (filter
// elements flattened over Ci/G×Kh×Kw) it multiplies, each ascending.
type convPlan struct {
	ci, cig, h, w, kh, kw, ho, wo int
	p                             ConvParams
	skip                          convSkip
	oys, oxs, ks                  []int
}

// npos is the number of output positions a plane computes: the GEMM's n.
func (pl *convPlan) npos() int { return len(pl.oys) * len(pl.oxs) }

// kvol is the number of elements in one filter, kept or not.
func (pl *convPlan) kvol() int { return pl.cig * pl.kh * pl.kw }

// keptIndices lists the indices in [0,n) that survive skipping one in
// every stride, starting at offset; stride 0 keeps them all.
func keptIndices(n, stride, offset int) []int {
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if stride == 0 || i%stride != offset {
			idx = append(idx, i)
		}
	}
	return idx
}

// convolve is the shared engine. It computes only the output positions
// and filter elements skip keeps: im2col emits the kept K rows at the kept
// positions, and the GEMM runs on exactly that (cog × kept K) · (kept K ×
// kept positions) product. Without perforation ep fuses into the GEMM
// writeback; a perforated block is scattered into its output planes,
// interpolated and finished by ep in one per-plane pass.
func convolve(x, w *tensor.Tensor, p ConvParams, prec Precision, skip convSkip, ep Epilogue) *tensor.Tensor {
	p = p.Norm()
	if x.Rank() != 4 || w.Rank() != 4 {
		panicShape("Conv2D", "need 4-D input and weight, got %v and %v", x.Shape(), w.Shape())
	}
	n, ci, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	co, cig, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	g := p.Groups
	if ci%g != 0 || co%g != 0 || cig != ci/g {
		panicShape("Conv2D", "groups=%d incompatible with Ci=%d Co=%d weight Ci/G=%d", g, ci, co, cig)
	}
	if ep.Bias != nil && ep.Bias.Elems() != co {
		panicShape("Conv2D", "bias length %d != output channels %d", ep.Bias.Elems(), co)
	}
	ho := tensor.ConvOutDim(h, kh, p.StrideH, p.PadH)
	wo := tensor.ConvOutDim(wd, kw, p.StrideW, p.PadW)

	pl := &convPlan{ci: ci, cig: cig, h: h, w: wd, kh: kh, kw: kw, ho: ho, wo: wo, p: p, skip: skip}
	rowStride, colStride := 0, 0
	switch skip.perfDir {
	case PerfRows:
		rowStride = skip.perfStride
	case PerfCols:
		colStride = skip.perfStride
	}
	pl.oys = keptIndices(ho, rowStride, skip.perfOffset)
	pl.oxs = keptIndices(wo, colStride, skip.perfOffset)
	kvol := cig * kh * kw
	pl.ks = keptIndices(kvol, skip.sampStride, skip.sampOffset)
	kk, npos := len(pl.ks), pl.npos()
	perforated := skip.perfDir != PerfNone

	// Filter sampling multiplies the compacted (Co × kept K) filter,
	// memoized for cacheable weights. When no element survives there is
	// nothing to multiply and the output is the epilogue of zero.
	wt := w
	if skip.sampStride != 0 && kk > 0 {
		if wt = defaultPackCache.cachedSampledFilter(w, skip.sampStride, skip.sampOffset); wt == nil {
			wt = SampleFilter(w, skip.sampStride, skip.sampOffset)
		}
	}
	xd, wdat := x.Data(), wt.Data()
	if prec == FP16 {
		// Quantized operands come from the pack cache for marked tensors
		// (constant weights, calibration inputs — quantized once, reused
		// across thousands of tuning executions) and from pooled scratch
		// otherwise.
		if q, ok := cachedQuantized(x); ok {
			xd = q
		} else {
			xq := quantizedScratch(xd)
			defer tensor.Release(xq)
			xd = xq
		}
		if q, ok := cachedQuantized(wt); ok {
			wdat = q
		} else {
			wq := quantizedScratch(wdat)
			defer tensor.Release(wq)
			wdat = wq
		}
	}

	out := tensor.New(n, co, ho, wo)
	od := out.Data()

	cog := co / g // output channels per group
	how := ho * wo

	// The per-row epilogue (one rowEpi per group — a C row is one output
	// channel, so bias indexes per row within the group's slice). It runs
	// in the GEMM writeback, or on the finished plane when perforated.
	var eps []rowEpi
	if prec == FP16 || !ep.empty() {
		eps = make([]rowEpi, g)
		for grp := range eps {
			re := rowEpi{perRow: true, act: ep.Act, clip: ep.Clip, quant: prec == FP16}
			if ep.Bias != nil {
				re.bias = ep.Bias.Data()[grp*cog : (grp+1)*cog]
			}
			eps[grp] = re
		}
	}

	// FP16 convolutions over a cacheable input (calibration batches,
	// baseline activations replayed by suffix profiling) additionally
	// memoize the whole prepared B operand of the exact convolution — the
	// quantized, packed im2col columns of each (image, group): the steady
	// state skips quantize, im2col and pack entirely. FP16 is where the
	// win concentrates (the quantization pass rides along for free) and
	// caching only the reduced precision keeps the approximate path
	// strictly cheaper than the exact one. Only the blocked GEMM geometry
	// qualifies, and only when the conv's full column working set fits
	// the cache budget (a sweep larger than the LRU would miss on every
	// call while still paying the insert).
	//
	// Every knob shares that one entry. An entry per knob would be read
	// about once per tune — suffix profiling runs each (op, knob) once —
	// and on AlexNet2 development-time tuning it tripled peak RSS and cut
	// the hit ratio from 0.99 to 0.31. Perforation gathers its kept
	// positions out of the shared operand; filter sampling multiplies the
	// whole operand with its filter re-expanded to the dense zeroed form,
	// whose zero columns the GEMM skips at less cost than gathering the
	// kept K rows.
	colsCached := prec == FP16 && cog >= gemmMR && how >= gemmNR &&
		defaultPackCache.colsBudgetOK(n, g, kvol*how)
	if colsCached {
		_, _, colsCached = x.CacheKey()
	}
	full := pl
	var wdense []float32
	if colsCached && skip != (convSkip{}) {
		full = pl.exact()
		if !perforated {
			wdense = pl.denseFilter(wdat, co)
			defer tensor.Release(wdense)
		}
	}

	// im2col per (image, group): cols is (kept K × kept positions), the
	// group's weights form a (cog × kept K) matrix; their product is the
	// output block, or for perforation the kept part of it. Both buffers
	// come from the scratch pool: im2col fully overwrites cols and the
	// perforated GEMM target is cleared before each use.
	parallel.For(n, func(img int) {
		cols := tensor.Scratch(kk * npos)
		var cbuf []float32
		if perforated {
			cbuf = tensor.Scratch(cog * npos)
		}
		for grp := 0; grp < g; grp++ {
			wblock := wdat[grp*cog*kk : (grp+1)*cog*kk]
			oblock := od[(img*co+grp*cog)*how : (img*co+(grp+1)*cog)*how]
			var re *rowEpi
			if eps != nil {
				re = &eps[grp]
			}
			a, k := wblock, kk
			var pre *prepacked
			if colsCached {
				pre = defaultPackCache.cachedConvCols(x, xd, img, grp, full, prec)
			}
			switch {
			case pre == nil:
				im2col(xd, cols, img, grp, pl)
			case wdense != nil:
				a, k = wdense[grp*cog*kvol:(grp+1)*cog*kvol], kvol
			case perforated:
				pre = pl.gatherCols(pre, cols)
			}
			if !perforated {
				gemmRun(a, cols, oblock, cog, k, npos, false, pre, re)
				continue
			}
			clear(cbuf)
			gemmRun(a, cols, cbuf, cog, k, npos, false, pre, nil)
			pl.fillPerforated(oblock, cbuf, re)
		}
		tensor.Release(cbuf)
		tensor.Release(cols)
	})
	return out
}

// gatherCols builds, in buf (len(ks)·npos floats), the prepacked operand
// of the kept K rows and positions out of src — the cached operand of the
// same convolution keeping everything. The gathered values are exactly
// those im2col would emit, so the GEMM result is unchanged. Four kept
// positions that form one whole source panel (row perforation of an
// output whose width is a multiple of four) move as one copy.
func (pl *convPlan) gatherCols(src *prepacked, buf []float32) *prepacked {
	k, kk := pl.kvol(), len(pl.ks)
	npos, nox := pl.npos(), len(pl.oxs)
	np := npos / gemmNR
	dst := &prepacked{np: np, panels: buf[:np*kk*gemmNR], tail: buf[np*kk*gemmNR : kk*npos]}
	srcCol := func(j int) int { return pl.oys[j/nox]*pl.wo + pl.oxs[j%nox] }
	for jp := 0; jp < np; jp++ {
		dp := dst.panels[jp*kk*gemmNR : (jp+1)*kk*gemmNR]
		j0 := srcCol(jp * gemmNR)
		if kk == k && j0%gemmNR == 0 && j0 < src.np*gemmNR && srcCol(jp*gemmNR+gemmNR-1) == j0+gemmNR-1 {
			copy(dp, src.panels[j0*k:(j0+gemmNR)*k])
			continue
		}
		for c := 0; c < gemmNR; c++ {
			s, sb, ss := src.column(srcCol(jp*gemmNR+c), k)
			for r, l := range pl.ks {
				dp[r*gemmNR+c] = s[sb+l*ss]
			}
		}
	}
	for j := np * gemmNR; j < npos; j++ {
		s, sb, ss := src.column(srcCol(j), k)
		dt := dst.tail[(j-np*gemmNR)*kk : (j-np*gemmNR+1)*kk]
		for r, l := range pl.ks {
			dt[r] = s[sb+l*ss]
		}
	}
	return dst
}

// denseFilter expands a compacted sampled filter (rows × len(ks), see
// SampleFilter) into pooled scratch in its dense (rows × Ci/G·Kh·Kw) form,
// the dropped elements +0: the zeroed filter the GEMM's zero-column skip
// passes over. The caller releases the result.
func (pl *convPlan) denseFilter(a []float32, rows int) []float32 {
	kvol, kk := pl.kvol(), len(pl.ks)
	dense := tensor.Scratch(rows * kvol)
	clear(dense)
	for f := 0; f < rows; f++ {
		row, src := dense[f*kvol:(f+1)*kvol], a[f*kk:(f+1)*kk]
		for r, l := range pl.ks {
			row[l] = src[r]
		}
	}
	return dense
}

// exact returns the plan of the same convolution keeping everything.
func (pl *convPlan) exact() *convPlan {
	e := *pl
	e.skip = convSkip{}
	e.oys = keptIndices(pl.ho, 0, 0)
	e.oxs = keptIndices(pl.wo, 0, 0)
	e.ks = keptIndices(pl.kvol(), 0, 0)
	return &e
}

// im2col unrolls the input patches of one (image, group) into cols, a
// len(ks) × npos column matrix: row r holds filter element ks[r] at every
// kept output position, in row-major (oy, ox) order. Out-of-bounds
// (padding) elements are zero. The exact convolution keeps every index;
// its unit-stride rows are one contiguous copy between the padding.
func im2col(xd, cols []float32, img, grp int, pl *convPlan) {
	h, w, kw := pl.h, pl.w, pl.kw
	khw := pl.kh * kw
	sh, sw, ph, pw := pl.p.StrideH, pl.p.StrideW, pl.p.PadH, pl.p.PadW
	nox := len(pl.oxs)
	npos := len(pl.oys) * nox
	dense := sw == 1 && nox == pl.wo
	for r, kidx := range pl.ks {
		c, ky, kx := kidx/khw, kidx%khw/kw, kidx%kw
		chanBase := (img*pl.ci + grp*pl.cig + c) * h * w
		rowBase := r * npos
		for i, oy := range pl.oys {
			iy := oy*sh - ph + ky
			dst := cols[rowBase+i*nox : rowBase+(i+1)*nox]
			if iy < 0 || iy >= h {
				clear(dst)
				continue
			}
			srcRow := xd[chanBase+iy*w : chanBase+(iy+1)*w]
			if dense {
				// ix = ox - pw + kx: in bounds for ox in [lo, hi).
				lo := min(max(pw-kx, 0), nox)
				hi := max(min(w+pw-kx, nox), lo)
				clear(dst[:lo])
				if hi > lo {
					copy(dst[lo:hi], srcRow[lo-pw+kx:])
				}
				clear(dst[hi:])
				continue
			}
			for j, ox := range pl.oxs {
				ix := ox*sw - pw + kx
				if ix < 0 || ix >= w {
					dst[j] = 0
				} else {
					dst[j] = srcRow[ix]
				}
			}
		}
	}
}

// fillPerforated finishes one (image, group) block of a perforated
// convolution, plane by plane while each is hot in cache: the plane takes
// its computed positions from c (cog × npos, the GEMM over the kept
// positions), interpolates the skipped rows or columns from them, then
// runs the epilogue — the bias/activation/FP16 chain, in the same order
// the unfused path applied it to the interpolated tensor.
func (pl *convPlan) fillPerforated(oblock, c []float32, re *rowEpi) {
	ho, wo := pl.ho, pl.wo
	how, npos, nox := ho*wo, pl.npos(), len(pl.oxs)
	for r := 0; r*how < len(oblock); r++ {
		plane := oblock[r*how : (r+1)*how]
		src := c[r*npos : (r+1)*npos]
		if pl.skip.perfDir == PerfRows {
			for i, oy := range pl.oys {
				copy(plane[oy*wo:(oy+1)*wo], src[i*wo:(i+1)*wo])
			}
		} else {
			for y := 0; y < ho; y++ {
				row, srow := plane[y*wo:(y+1)*wo], src[y*nox:(y+1)*nox]
				for j, ox := range pl.oxs {
					row[ox] = srow[j]
				}
			}
		}
		interpolatePerforated(plane, ho, wo, pl.skip)
		re.apply(plane, r)
	}
}

// interpolatePerforated fills the skipped rows (or columns) of one output
// plane whose kept positions hold the raw convolution: each skipped line
// becomes the average of its two neighbours, a copy of its one neighbour
// at the plane's edge, or zero when the plane has no computed line. This
// is Figurnov et al.'s nearest-neighbour interpolation: at most one line
// in every stride (≥ 2) is skipped, so the neighbours of a skipped line
// are always computed ones.
func interpolatePerforated(plane []float32, ho, wo int, s convSkip) {
	if s.perfDir == PerfRows {
		for y := s.perfOffset; y < ho; y += s.perfStride {
			row := plane[y*wo : (y+1)*wo]
			switch up, down := y-1, y+1; {
			case up >= 0 && down < ho:
				a, b := plane[up*wo:(up+1)*wo], plane[down*wo:(down+1)*wo]
				for i := range row {
					row[i] = 0.5 * (a[i] + b[i])
				}
			case up >= 0:
				copy(row, plane[up*wo:(up+1)*wo])
			case down < ho:
				copy(row, plane[down*wo:(down+1)*wo])
			default:
				clear(row)
			}
		}
		return
	}
	for x := s.perfOffset; x < wo; x += s.perfStride {
		left, right := x-1, x+1
		for y := 0; y < ho; y++ {
			row := plane[y*wo : (y+1)*wo]
			switch {
			case left >= 0 && right < wo:
				row[x] = 0.5 * (row[left] + row[right])
			case left >= 0:
				row[x] = row[left]
			case right < wo:
				row[x] = row[right]
			default:
				row[x] = 0
			}
		}
	}
}
