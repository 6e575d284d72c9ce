package tensorops

import (
	"math"
	"testing"
)

// ulpDiff32 returns the distance in float32 ulps between a and b (0 when
// bit-equal, including -0 vs +0 treated as 1 apart only if bits differ).
func ulpDiff32(a, b float32) uint32 {
	ia := int32(math.Float32bits(a))
	ib := int32(math.Float32bits(b))
	// Map to a monotone integer line.
	if ia < 0 {
		ia = math.MinInt32 - ia
	}
	if ib < 0 {
		ib = math.MinInt32 - ib
	}
	d := int64(ia) - int64(ib)
	if d < 0 {
		d = -d
	}
	return uint32(d)
}

// TestTanh32MatchesMathTanh sweeps a dense grid of inputs across the full
// useful range and requires tanh32 to be within 1 float32 ulp of
// float32(math.Tanh(x)) — the polynomial's error budget (~2e-4 ulp) only
// permits a 1-ulp difference when the true value straddles a float32
// rounding boundary.
func TestTanh32MatchesMathTanh(t *testing.T) {
	worst := uint32(0)
	var worstX float32
	check := func(x float32) {
		got := tanh32(x)
		want := float32(math.Tanh(float64(x)))
		if d := ulpDiff32(got, want); d > worst {
			worst = d
			worstX = x
		}
	}
	// Dense linear sweep over the active range.
	for i := -200000; i <= 200000; i++ {
		check(float32(i) * 5.2e-5) // covers [-10.4, 10.4]
	}
	// Log-spaced sweep into the denormal/small-input region and out past
	// saturation.
	for e := -40; e <= 6; e++ {
		base := float32(math.Pow(2, float64(e)))
		for m := 0; m < 64; m++ {
			x := base * (1 + float32(m)/64)
			check(x)
			check(-x)
		}
	}
	if worst > 1 {
		t.Fatalf("tanh32(%g) differs from math.Tanh by %d ulps", worstX, worst)
	}
}

func TestTanh32Edges(t *testing.T) {
	if got := tanh32(0); math.Float32bits(got) != 0 {
		t.Fatalf("tanh32(0) = %g (bits %#x), want +0", got, math.Float32bits(got))
	}
	negZero := float32(math.Copysign(0, -1))
	if got := tanh32(negZero); got != 0 {
		t.Fatalf("tanh32(-0) = %g, want 0", got)
	}
	if got := tanh32(float32(math.Inf(1))); got != 1 {
		t.Fatalf("tanh32(+Inf) = %g, want 1", got)
	}
	if got := tanh32(float32(math.Inf(-1))); got != -1 {
		t.Fatalf("tanh32(-Inf) = %g, want -1", got)
	}
	if got := tanh32(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Fatalf("tanh32(NaN) = %g, want NaN", got)
	}
	if got := tanh32(10); got != 1 {
		t.Fatalf("tanh32(10) = %g, want saturated 1", got)
	}
	if got := tanh32(-10); got != -1 {
		t.Fatalf("tanh32(-10) = %g, want saturated -1", got)
	}
	// Odd symmetry holds bit-exactly: tanh32 computes on |x|.
	for _, x := range []float32{1e-8, 0.1, 0.5, 1, 2, 5, 8.9} {
		if p, n := tanh32(x), tanh32(-x); p != -n {
			t.Fatalf("tanh32 not odd at %g: %g vs %g", x, p, n)
		}
	}
}

// tanhSpecials are the inputs where tanh32 leaves its main path or where
// a vector lane could diverge from it: signed zeros, infinities, quiet
// and signalling NaNs with payloads (returned as is), float32
// subnormals, the largest and smallest normals, both sides of the
// |2x| < 18.03 saturation edge, and the points where the ln2 reduction
// steps k.
func tanhSpecials() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fc12345, 0xffe00001, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fa5a5a5, 0xffbfffff, // signalling NaNs
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest, largest normals
	}
	var xs []float32
	for _, b := range bits {
		xs = append(xs, math.Float32frombits(b))
	}
	edge := float32(tanhSat / 2)
	for _, x := range []float32{edge, math.Nextafter32(edge, 0), math.Nextafter32(edge, 20)} {
		xs = append(xs, x, -x)
	}
	for k := 0; k <= 27; k++ {
		x := float32((float64(k) + 0.5) / invLn2 / 2) // y·(1/ln2) + 0.5 ≈ k+1
		xs = append(xs, x, math.Nextafter32(x, 0), math.Nextafter32(x, 20), -x)
	}
	return xs
}

// TestTanhSliceMatchesScalar pins the bulk path (the AVX2 kernel where
// the CPU has it) to tanh32 bit for bit: a strided sweep of the float32
// bit patterns, the special inputs at every lane position, every length
// up to 17 at unaligned offsets, and in place.
func TestTanhSliceMatchesScalar(t *testing.T) {
	check := func(what string, dst, src []float32) {
		t.Helper()
		for i, x := range src {
			if want := tanh32(x); math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("%s: tanh(%#08x) = %#08x, tanh32 %#08x",
					what, math.Float32bits(x), math.Float32bits(dst[i]), math.Float32bits(want))
			}
		}
	}

	const stride = 4099
	src := make([]float32, 0, 1<<32/stride+1)
	for u := uint64(0); u < 1<<32; u += stride {
		src = append(src, math.Float32frombits(uint32(u)))
	}
	dst := make([]float32, len(src))
	tanhSlice(dst, src)
	check("sweep", dst, src)

	specials := tanhSpecials()
	for shift := 0; shift < 4; shift++ {
		s := append(make([]float32, shift), specials...)
		d := make([]float32, len(s))
		tanhSlice(d, s)
		check("specials", d, s)
	}

	buf := make([]float32, 24)
	for n := 0; n <= 17; n++ {
		for off := 0; off < 4; off++ {
			for i := range buf {
				buf[i] = specials[(i*7+n)%len(specials)]
			}
			in := append([]float32(nil), buf[off:off+n]...)
			tanhSlice(buf[off:off+n], buf[off:off+n])
			check("in place", buf[off:off+n], in)
		}
	}
}
