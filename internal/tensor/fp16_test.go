package tensor

import (
	"math"
	"testing"
)

// quantizeRef is the reference round-trip the QuantizeFP16 fast path must
// reproduce bit for bit: the full conversion pair.
func quantizeRef(v float32) float32 { return F16ToF32(F32ToF16(v)) }

// bitsEqual compares two float32 values as bit patterns so that NaN
// payloads and signed zeros are distinguished.
func bitsEqual(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestQuantizeFP16MatchesReference sweeps the float32 encoding space with
// a prime stride (hitting every exponent, both signs and ~17M mantissa
// patterns) and checks the fast-path QuantizeFP16 against the reference
// conversion pair bit for bit.
func TestQuantizeFP16MatchesReference(t *testing.T) {
	const stride = 251
	for u := uint64(0); u < 1<<32; u += stride {
		v := math.Float32frombits(uint32(u))
		got := QuantizeFP16(v)
		want := quantizeRef(v)
		if !bitsEqual(got, want) {
			t.Fatalf("QuantizeFP16(%x=%v) = %x, reference %x",
				uint32(u), v, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// TestQuantizeFP16Boundaries exhausts the mantissa space around every
// boundary the fast path branches on: the subnormal/normal edge (biased
// exponent 112/113), the overflow edge (141/142/143), zeros, infinities
// and NaN.
func TestQuantizeFP16Boundaries(t *testing.T) {
	exps := []uint32{0, 1, 102, 103, 112, 113, 114, 140, 141, 142, 143, 254, 255}
	mants := []uint32{
		0, 1, 0xfff, 0x1000, 0x1001, 0x1fff, 0x2000,
		0x7fe000, 0x7fefff, 0x7ff000, 0x7fffff,
	}
	for _, sign := range []uint32{0, 1 << 31} {
		for _, e := range exps {
			for _, m := range mants {
				u := sign | e<<23 | m
				v := math.Float32frombits(u)
				got := QuantizeFP16(v)
				want := quantizeRef(v)
				if !bitsEqual(got, want) {
					t.Fatalf("QuantizeFP16(%#08x=%v) = %#08x, reference %#08x",
						u, v, math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}
}

func TestQuantizeFP16SliceMatchesScalar(t *testing.T) {
	g := NewRNG(9)
	src := make([]float32, 1024)
	for i := range src {
		src[i] = float32(g.NormFloat64() * math.Pow(2, float64(i%40-20)))
	}
	src[0] = float32(math.Inf(1))
	src[1] = float32(math.Inf(-1))
	src[2] = float32(math.NaN())
	src[3] = 0
	dst := make([]float32, len(src))
	QuantizeFP16Slice(dst, src)
	for i, v := range src {
		if want := quantizeRef(v); !bitsEqual(dst[i], want) {
			t.Fatalf("elem %d: got %x, want %x", i, math.Float32bits(dst[i]), math.Float32bits(want))
		}
	}
	// In-place aliasing must work: ToFP16 uses dst == src.
	QuantizeFP16Slice(src, src)
	for i := range src {
		if !bitsEqual(src[i], dst[i]) {
			t.Fatalf("in-place elem %d: %x != %x", i, math.Float32bits(src[i]), math.Float32bits(dst[i]))
		}
	}
}

// TestCacheIdentity pins the MarkCacheable/CacheKey/InvalidateCache
// contract: unmarked tensors are never cacheable, marking is idempotent,
// IDs are unique per tensor, and invalidation advances only the
// generation.
func TestCacheIdentity(t *testing.T) {
	a, b := New(4), New(4)
	if _, _, ok := a.CacheKey(); ok {
		t.Fatal("unmarked tensor reports a cache key")
	}
	a.MarkCacheable()
	id1, gen1, ok := a.CacheKey()
	if !ok || id1 == 0 {
		t.Fatalf("marked tensor has key id=%d ok=%v", id1, ok)
	}
	a.MarkCacheable() // idempotent
	if id2, _, _ := a.CacheKey(); id2 != id1 {
		t.Fatalf("re-marking changed id %d -> %d", id1, id2)
	}
	b.MarkCacheable()
	if idB, _, _ := b.CacheKey(); idB == id1 {
		t.Fatal("two tensors share a cache id")
	}
	a.InvalidateCache()
	id3, gen3, _ := a.CacheKey()
	if id3 != id1 || gen3 != gen1+1 {
		t.Fatalf("invalidate: id %d->%d gen %d->%d", id1, id3, gen1, gen3)
	}
	// Clones and reshaped views must not inherit the identity: their data
	// diverges (clone) or aliases without shared generation tracking
	// (view).
	if _, _, ok := a.Clone().CacheKey(); ok {
		t.Fatal("clone inherited cache identity")
	}
	if _, _, ok := a.Reshape(2, 2).CacheKey(); ok {
		t.Fatal("reshape view inherited cache identity")
	}
}

// BenchmarkQuantizeFP16Slice times the bulk FP16 round trip against the
// scalar QuantizeFP16 oracle, on normally distributed data and on
// ReLU-like data whose zeros take the kernel's signed-zero case.
func BenchmarkQuantizeFP16Slice(b *testing.B) {
	g := NewRNG(3)
	normal := make([]float32, 1<<14)
	relu := make([]float32, len(normal))
	for i := range normal {
		normal[i] = float32(g.NormFloat64())
		relu[i] = max(normal[i], 0)
	}
	dst := make([]float32, len(normal))
	for _, in := range []struct {
		name string
		src  []float32
	}{{"normal", normal}, {"relu", relu}} {
		src := in.src
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				QuantizeFP16Slice(dst, src)
			}
		})
		b.Run(in.name+"-scalar", func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				for j, v := range src {
					dst[j] = QuantizeFP16(v)
				}
			}
		})
	}
}

// fp16Specials are the inputs on or around every boundary of the FP16
// round trip: signed zeros, float32 subnormals, the underflow edge
// (biased exponents 102/103), the half subnormal range (103-112), the
// normal range edges (113, 141), the overflow edge (142, with 65504 and
// 65520 — the largest half and the first value rounding to Inf), Inf and
// NaNs with payloads.
func fp16Specials() []float32 {
	var xs []float32
	for _, sign := range []uint32{0, 1 << 31} {
		for _, e := range []uint32{0, 1, 102, 103, 112, 113, 141, 142, 143, 255} {
			for _, m := range []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x7fefff, 0x7ff000, 0x7fffff} {
				xs = append(xs, math.Float32frombits(sign|e<<23|m))
			}
		}
		xs = append(xs, math.Float32frombits(sign|0x477fe000), math.Float32frombits(sign|0x477ff000)) // ±65504, ±65520
		xs = append(xs, math.Float32frombits(sign|0x7fc12345), math.Float32frombits(sign|0x7f800001))
	}
	return xs
}

// TestQuantizeFP16SliceBitIdentical pins the bulk path (the AVX2 kernel
// where the CPU has it) to QuantizeFP16 bit for bit: a strided sweep of
// the float32 bit patterns in ascending order (so most 8-blocks share an
// exponent and stay in the vector unit), each special value at every
// lane of an otherwise normal block, every length up to 17 at unaligned
// offsets, and in place.
func TestQuantizeFP16SliceBitIdentical(t *testing.T) {
	check := func(what string, dst, src []float32) {
		t.Helper()
		for i, x := range src {
			if want := QuantizeFP16(x); !bitsEqual(dst[i], want) {
				t.Fatalf("%s: quantize(%#08x) = %#08x, QuantizeFP16 %#08x",
					what, math.Float32bits(x), math.Float32bits(dst[i]), math.Float32bits(want))
			}
		}
	}

	const stride = 251
	src := make([]float32, 1<<16)
	dst := make([]float32, len(src))
	for u := uint64(0); u < 1<<32; {
		n := 0
		for ; n < len(src) && u < 1<<32; u += stride {
			src[n] = math.Float32frombits(uint32(u))
			n++
		}
		QuantizeFP16Slice(dst[:n], src[:n])
		check("sweep", dst[:n], src[:n])
	}

	specials := fp16Specials()
	block := make([]float32, 16)
	for _, s := range specials {
		for lane := range block {
			for i := range block {
				block[i] = 1.5 + float32(i)
			}
			block[lane] = s
			QuantizeFP16Slice(dst[:16], block)
			check("special lane", dst[:16], block)
		}
	}

	buf := make([]float32, 32)
	for n := 0; n <= 17; n++ {
		for off := 0; off < 8; off++ {
			for i := range buf {
				buf[i] = specials[(i*5+n)%len(specials)]
			}
			in := append([]float32(nil), buf[off:off+n]...)
			QuantizeFP16Slice(buf[off:off+n], buf[off:off+n])
			check("in place", buf[off:off+n], in)
		}
	}
}
