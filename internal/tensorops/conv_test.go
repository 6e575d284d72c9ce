package tensorops

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// naiveConv is an independent reference implementation used to validate the
// im2col+GEMM engine.
func naiveConv(x, w *tensor.Tensor, p ConvParams) *tensor.Tensor {
	p = p.Norm()
	n, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	co, cig, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	g := p.Groups
	cog := co / g
	ho := tensor.ConvOutDim(h, kh, p.StrideH, p.PadH)
	wo := tensor.ConvOutDim(wd, kw, p.StrideW, p.PadW)
	out := tensor.New(n, co, ho, wo)
	for img := 0; img < n; img++ {
		for oc := 0; oc < co; oc++ {
			grp := oc / cog
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					var acc float64
					for c := 0; c < cig; c++ {
						ic := grp*cig + c
						for ky := 0; ky < kh; ky++ {
							iy := oy*p.StrideH - p.PadH + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*p.StrideW - p.PadW + kx
								if ix < 0 || ix >= wd {
									continue
								}
								acc += float64(x.At(img, ic, iy, ix)) * float64(w.At(oc, c, ky, kx))
							}
						}
					}
					out.Set(float32(acc), img, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func randTensor(g *tensor.RNG, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	g.FillNormal(t, 0, 1)
	return t
}

func TestConv2DMatchesNaive(t *testing.T) {
	g := tensor.NewRNG(1)
	cases := []struct {
		xdims, wdims []int
		p            ConvParams
	}{
		{[]int{1, 1, 5, 5}, []int{1, 1, 3, 3}, ConvParams{PadH: 1, PadW: 1}},
		{[]int{2, 3, 8, 8}, []int{4, 3, 3, 3}, ConvParams{PadH: 1, PadW: 1}},
		{[]int{1, 2, 9, 9}, []int{3, 2, 3, 3}, ConvParams{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{[]int{1, 3, 7, 7}, []int{5, 3, 1, 1}, ConvParams{}},
		{[]int{1, 4, 6, 6}, []int{4, 1, 3, 3}, ConvParams{PadH: 1, PadW: 1, Groups: 4}}, // depthwise
		{[]int{1, 4, 6, 6}, []int{6, 2, 3, 3}, ConvParams{PadH: 1, PadW: 1, Groups: 2}}, // grouped
		{[]int{1, 1, 11, 7}, []int{2, 1, 5, 3}, ConvParams{StrideH: 2, StrideW: 1, PadH: 2, PadW: 1}},
	}
	for i, c := range cases {
		x := randTensor(g, c.xdims...)
		w := randTensor(g, c.wdims...)
		got := Conv2D(x, w, c.p, FP32)
		want := naiveConv(x, w, c.p)
		if !got.Shape().Equal(want.Shape()) {
			t.Fatalf("case %d: shape %v, want %v", i, got.Shape(), want.Shape())
		}
		if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
			t.Errorf("case %d: max diff %g vs naive", i, d)
		}
	}
}

func TestConv2DShapeMismatchPanics(t *testing.T) {
	g := tensor.NewRNG(2)
	x := randTensor(g, 1, 3, 5, 5)
	w := randTensor(g, 2, 4, 3, 3) // wrong Ci
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on channel mismatch")
		}
	}()
	Conv2D(x, w, ConvParams{}, FP32)
}

func TestConv2DFP16IsQuantized(t *testing.T) {
	g := tensor.NewRNG(3)
	x := randTensor(g, 1, 2, 6, 6)
	w := randTensor(g, 3, 2, 3, 3)
	exact := Conv2D(x, w, ConvParams{PadH: 1, PadW: 1}, FP32)
	half := Conv2D(x, w, ConvParams{PadH: 1, PadW: 1}, FP16)
	// FP16 output must be exactly representable in half precision.
	for i, v := range half.Data() {
		if q := tensor.QuantizeFP16(v); q != v {
			t.Fatalf("elem %d = %v not half-representable", i, v)
		}
	}
	// It should be close to, but generally not identical to, FP32.
	if d := tensor.MaxAbsDiff(exact, half); d == 0 {
		t.Log("note: FP16 conv happened to be exact on this input")
	} else if d > 0.1 {
		t.Errorf("FP16 error too large: %g", d)
	}
}

func TestFilterSamplingDropsAndRescales(t *testing.T) {
	w := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 1, 2, 2)
	s := SampleFilter(w, 2, 0) // drop even positions, scale odd by 2
	want := []float32{4, 8, 12, 16}
	if !s.Shape().Equal(tensor.NewShape(2, 2)) {
		t.Fatalf("SampleFilter shape %v, want [2 2] (Co × kept)", s.Shape())
	}
	for i, v := range s.Data() {
		if v != want[i] {
			t.Fatalf("SampleFilter elem %d = %v, want %v", i, v, want[i])
		}
	}
	// original untouched
	if w.Data()[0] != 1 {
		t.Fatal("SampleFilter mutated input weights")
	}
}

// Property: with constant filters and constant input, rescaled filter
// sampling is exact (it preserves the weighted sum).
func TestFilterSamplingExactOnConstants(t *testing.T) {
	x := tensor.New(1, 1, 6, 6)
	x.Fill(1)
	w := tensor.New(1, 1, 3, 3)
	w.Fill(0.5)
	exact := Conv2D(x, w, ConvParams{}, FP32)
	for stride := 2; stride <= 4; stride++ {
		for off := 0; off < stride; off++ {
			// Only offsets that drop exactly floor-or-ceil elements keep the
			// constant-sum property when fvol % stride != 0; allow small slack.
			got := Conv2DFilterSampling(x, w, ConvParams{}, stride, off, FP32)
			rel := tensor.MaxAbsDiff(got, exact) / 4.5
			if rel > 0.35 {
				t.Errorf("stride %d off %d: rel err %g too large", stride, off, rel)
			}
		}
	}
}

func TestFilterSamplingOffsetsDiffer(t *testing.T) {
	g := tensor.NewRNG(4)
	x := randTensor(g, 1, 3, 8, 8)
	w := randTensor(g, 4, 3, 3, 3)
	a := Conv2DFilterSampling(x, w, ConvParams{PadH: 1, PadW: 1}, 2, 0, FP32)
	b := Conv2DFilterSampling(x, w, ConvParams{PadH: 1, PadW: 1}, 2, 1, FP32)
	if tensor.Equal(a, b, 1e-9) {
		t.Error("different sampling offsets should give different outputs")
	}
}

func TestFilterSamplingInvalidKnobPanics(t *testing.T) {
	g := tensor.NewRNG(5)
	x := randTensor(g, 1, 1, 4, 4)
	w := randTensor(g, 1, 1, 3, 3)
	for _, bad := range []struct{ stride, off int }{{1, 0}, {5, 0}, {2, 2}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stride=%d off=%d should panic", bad.stride, bad.off)
				}
			}()
			Conv2DFilterSampling(x, w, ConvParams{}, bad.stride, bad.off, FP32)
		}()
	}
}

func TestPerforatedKeptRowsExact(t *testing.T) {
	g := tensor.NewRNG(6)
	x := randTensor(g, 1, 2, 8, 8)
	w := randTensor(g, 3, 2, 3, 3)
	p := ConvParams{PadH: 1, PadW: 1}
	exact := Conv2D(x, w, p, FP32)
	perf := Conv2DPerforated(x, w, p, PerfRows, 2, 0, FP32)
	ho, wo := exact.Dim(2), exact.Dim(3)
	for oc := 0; oc < 3; oc++ {
		for y := 0; y < ho; y++ {
			skipped := y%2 == 0
			for xx := 0; xx < wo; xx++ {
				e, pv := exact.At(0, oc, y, xx), perf.At(0, oc, y, xx)
				if !skipped && math.Abs(float64(e-pv)) > 1e-5 {
					t.Fatalf("kept row %d differs: %v vs %v", y, pv, e)
				}
			}
			if skipped && y > 0 && y < ho-1 {
				// interpolated = average of neighbors
				for xx := 0; xx < wo; xx++ {
					want := 0.5 * (exact.At(0, oc, y-1, xx) + exact.At(0, oc, y+1, xx))
					if math.Abs(float64(perf.At(0, oc, y, xx)-want)) > 1e-5 {
						t.Fatalf("row %d col %d: interpolation %v, want %v", y, xx, perf.At(0, oc, y, xx), want)
					}
				}
			}
		}
	}
}

func TestPerforatedColsSymmetric(t *testing.T) {
	g := tensor.NewRNG(7)
	x := randTensor(g, 1, 1, 8, 8)
	w := randTensor(g, 1, 1, 3, 3)
	p := ConvParams{PadH: 1, PadW: 1}
	exact := Conv2D(x, w, p, FP32)
	perf := Conv2DPerforated(x, w, p, PerfCols, 3, 1, FP32)
	wo := exact.Dim(3)
	for y := 0; y < exact.Dim(2); y++ {
		for xx := 0; xx < wo; xx++ {
			if xx%3 != 1 { // kept column
				if math.Abs(float64(exact.At(0, 0, y, xx)-perf.At(0, 0, y, xx))) > 1e-5 {
					t.Fatalf("kept col %d differs", xx)
				}
			}
		}
	}
}

// Property: perforation preserves output shape for all legal knobs.
func TestPerforationShapePreserved(t *testing.T) {
	g := tensor.NewRNG(8)
	x := randTensor(g, 1, 2, 9, 9)
	w := randTensor(g, 2, 2, 3, 3)
	p := ConvParams{PadH: 1, PadW: 1}
	want := Conv2D(x, w, p, FP32).Shape()
	for _, dir := range []PerfDirection{PerfRows, PerfCols} {
		for stride := 2; stride <= 4; stride++ {
			for off := 0; off < stride; off++ {
				got := Conv2DPerforated(x, w, p, dir, stride, off, FP32)
				if !got.Shape().Equal(want) {
					t.Fatalf("dir=%v stride=%d off=%d: shape %v, want %v", dir, stride, off, got.Shape(), want)
				}
			}
		}
	}
}

// Property: more aggressive perforation (larger fraction skipped) never
// reduces error relative to exact output — on random inputs, on average.
func TestPerforationErrorGrowsWithRate(t *testing.T) {
	g := tensor.NewRNG(9)
	var err2, err4 float64
	for trial := 0; trial < 5; trial++ {
		x := randTensor(g, 1, 2, 12, 12)
		w := randTensor(g, 2, 2, 3, 3)
		p := ConvParams{PadH: 1, PadW: 1}
		exact := Conv2D(x, w, p, FP32)
		perf50 := Conv2DPerforated(x, w, p, PerfRows, 2, 0, FP32) // skip 1/2
		perf25 := Conv2DPerforated(x, w, p, PerfRows, 4, 0, FP32) // skip 1/4
		err2 += tensor.MSE(perf50, exact)
		err4 += tensor.MSE(perf25, exact)
	}
	if err4 >= err2 {
		t.Errorf("25%% perforation error (%g) should be below 50%% perforation error (%g)", err4, err2)
	}
}

func TestGemmAgainstQuick(t *testing.T) {
	// Property: Gemm distributes over addition of A.
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		m, k, n := 3, 4, 5
		a1 := make([]float32, m*k)
		a2 := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a1 {
			a1[i] = float32(g.NormFloat64())
			a2[i] = float32(g.NormFloat64())
		}
		for i := range b {
			b[i] = float32(g.NormFloat64())
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		cs := make([]float32, m*n)
		Gemm(a1, b, c1, m, k, n)
		Gemm(a2, b, c2, m, k, n)
		asum := make([]float32, m*k)
		for i := range asum {
			asum[i] = a1[i] + a2[i]
		}
		Gemm(asum, b, cs, m, k, n)
		for i := range cs {
			if math.Abs(float64(cs[i]-(c1[i]+c2[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatMul(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	w := tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	y := MatMul(x, w, FP32)
	if !tensor.Equal(y, x, 1e-9) {
		t.Fatalf("identity MatMul: got %v", y.Data())
	}
	w2 := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y2 := MatMul(x, w2, FP32)
	want := []float32{1*1 + 2*4, 1*2 + 2*5, 1*3 + 2*6, 3*1 + 4*4, 3*2 + 4*5, 3*3 + 4*6}
	for i, v := range y2.Data() {
		if v != want[i] {
			t.Fatalf("MatMul elem %d = %v, want %v", i, v, want[i])
		}
	}
}

// refInterpolate is the compute-then-interpolate reference for
// perforation: every skipped row (or column) of the full output becomes
// the average of the nearest computed rows above and below (columns left
// and right), a copy of the one that exists, or zero.
func refInterpolate(out *tensor.Tensor, dir PerfDirection, stride, offset int) {
	n, co, ho, wo := out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3)
	skip := func(i int) bool { return i%stride == offset }
	nearest := func(i, step, limit int) int {
		for j := i + step; j >= 0 && j < limit; j += step {
			if !skip(j) {
				return j
			}
		}
		return -1
	}
	at := func(img, ch, y, x int) float32 { return out.At(img, ch, y, x) }
	for img := 0; img < n; img++ {
		for ch := 0; ch < co; ch++ {
			for y := 0; y < ho; y++ {
				for x := 0; x < wo; x++ {
					i, limit := y, ho
					if dir == PerfCols {
						i, limit = x, wo
					}
					if !skip(i) {
						continue
					}
					a, b := nearest(i, -1, limit), nearest(i, 1, limit)
					get := func(j int) float32 {
						if dir == PerfCols {
							return at(img, ch, y, j)
						}
						return at(img, ch, j, x)
					}
					var v float32
					switch {
					case a >= 0 && b >= 0:
						v = 0.5 * (get(a) + get(b))
					case a >= 0:
						v = get(a)
					case b >= 0:
						v = get(b)
					}
					out.Set(v, img, ch, y, x)
				}
			}
		}
	}
}

// refPerforated is the old perforation path, spelled out: the full raw
// convolution (over FP16-quantized operands for FP16), interpolation of
// the skipped lines, the FP16 writeback, then ApplyEpilogue.
func refPerforated(x, w *tensor.Tensor, p ConvParams, dir PerfDirection, stride, offset int, prec Precision, ep Epilogue) *tensor.Tensor {
	if prec == FP16 {
		x, w = x.CloneFP16(), w.CloneFP16()
	}
	out := Conv2D(x, w, p, FP32)
	refInterpolate(out, dir, stride, offset)
	if prec == FP16 {
		out.ToFP16()
	}
	return ApplyEpilogue(out, ep, prec)
}

// zeroedSampleFilter is the dense form of filter sampling the kernel once
// multiplied: the dropped elements zeroed in place, the rest rescaled.
func zeroedSampleFilter(w *tensor.Tensor, stride, offset int) *tensor.Tensor {
	out := w.Clone()
	fvol := w.Elems() / w.Dim(0)
	scale := float32(stride) / float32(stride-1)
	od := out.Data()
	for i := range od {
		if i%fvol%stride == offset {
			od[i] = 0
		} else {
			od[i] *= scale
		}
	}
	return out
}

// approxGridCase is one point of the differential grid the approximate
// kernels are checked over.
type approxGridCase struct {
	name   string
	x, w   *tensor.Tensor
	p      ConvParams
	prec   Precision
	ep     Epilogue
	cached bool
}

// approxGrid enumerates input shapes (one whose perforated rows leave a
// single output line) × stride 1/2 × padding 0/1 × dense/depthwise
// groups × FP32/FP16 × uncached/cache-marked operands × three epilogues.
// Dense convolutions have 6 output channels, so the GEMM runs a 4-row
// micro-tile block plus edge rows, and output widths leave tail columns.
func approxGrid() []approxGridCase {
	g := tensor.NewRNG(31)
	var cases []approxGridCase
	for _, xdims := range [][]int{{2, 4, 9, 7}, {1, 4, 3, 6}} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, depthwise := range []bool{false, true} {
					co, cig, groups := 6, xdims[1], 1
					if depthwise {
						co, cig, groups = xdims[1], 1, xdims[1]
					}
					p := ConvParams{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Groups: groups}
					x := randTensor(g, xdims...)
					w := randTensor(g, co, cig, 3, 3)
					eps := []struct {
						name string
						ep   Epilogue
					}{
						{"none", Epilogue{}},
						{"bias+relu", Epilogue{Bias: randTensor(g, co), Act: ActReLU}},
						{"tanh", Epilogue{Act: ActTanh}},
					}
					for _, prec := range []Precision{FP32, FP16} {
						for _, cached := range []bool{false, true} {
							for _, e := range eps {
								cx, cw := x, w
								if cached {
									cx, cw = x.Clone().MarkCacheable(), w.Clone().MarkCacheable()
								}
								cases = append(cases, approxGridCase{
									name: sprintf("x=%v s=%d pad=%d dw=%v %v cached=%v ep=%s",
										xdims, stride, pad, depthwise, prec, cached, e.name),
									x: cx, w: cw, p: p, prec: prec, ep: e.ep, cached: cached,
								})
							}
						}
					}
				}
			}
		}
	}
	return cases
}

func requireBitEqual(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: out[%d] = %v, want %v", what, i, gd[i], wd[i])
		}
	}
}

// TestPerforatedMatchesComputeThenInterpolate: the perforated kernel
// computes only the kept rows or columns and fuses its epilogue, yet must
// equal the full convolution followed by interpolation and ApplyEpilogue
// bit for bit, over all 18 perforation knobs and the whole grid. Cached
// cases run twice, so the second call reads the memoized columns.
func TestPerforatedMatchesComputeThenInterpolate(t *testing.T) {
	for _, c := range approxGrid() {
		for _, dir := range []PerfDirection{PerfRows, PerfCols} {
			for stride := 2; stride <= 4; stride++ {
				for off := 0; off < stride; off++ {
					want := refPerforated(c.x, c.w, c.p, dir, stride, off, c.prec, c.ep)
					what := sprintf("%s perf=%v/%d/%d", c.name, dir, stride, off)
					requireBitEqual(t, what, Conv2DPerforatedFused(c.x, c.w, c.p, dir, stride, off, c.prec, c.ep), want)
					if c.cached {
						requireBitEqual(t, what+" (warm)", Conv2DPerforatedFused(c.x, c.w, c.p, dir, stride, off, c.prec, c.ep), want)
					}
					if c.ep.empty() {
						requireBitEqual(t, what+" (unfused)", Conv2DPerforated(c.x, c.w, c.p, dir, stride, off, c.prec), want)
					}
				}
			}
		}
	}
}

// TestFilterSamplingReducedKMatchesZeroedFilter: filter sampling runs the
// GEMM on the reduced K, yet must equal the convolution with the dense
// zeroed-and-rescaled filter bit for bit, over all 9 sampling knobs and
// the whole grid.
func TestFilterSamplingReducedKMatchesZeroedFilter(t *testing.T) {
	for _, c := range approxGrid() {
		for stride := 2; stride <= 4; stride++ {
			for off := 0; off < stride; off++ {
				want := Conv2DFused(c.x, zeroedSampleFilter(c.w, stride, off), c.p, c.prec, c.ep)
				what := sprintf("%s samp=%d/%d", c.name, stride, off)
				requireBitEqual(t, what, Conv2DFilterSamplingFused(c.x, c.w, c.p, stride, off, c.prec, c.ep), want)
				if c.cached {
					requireBitEqual(t, what+" (warm)", Conv2DFilterSamplingFused(c.x, c.w, c.p, stride, off, c.prec, c.ep), want)
				}
			}
		}
	}
}

// TestFilterSamplingEmptyFilter: a 1×1 single-channel filter sampled at
// stride 2, offset 0 keeps no element, so the output is the epilogue of
// zero — as with the dense zeroed filter.
func TestFilterSamplingEmptyFilter(t *testing.T) {
	g := tensor.NewRNG(32)
	x := randTensor(g, 1, 4, 5, 5)
	w := randTensor(g, 4, 1, 1, 1)
	p := ConvParams{Groups: 4}
	ep := Epilogue{Bias: randTensor(g, 4), Act: ActTanh}
	for _, prec := range []Precision{FP32, FP16} {
		want := Conv2DFused(x, zeroedSampleFilter(w, 2, 0), p, prec, ep)
		requireBitEqual(t, prec.String(), Conv2DFilterSamplingFused(x, w, p, 2, 0, prec, ep), want)
	}
}
