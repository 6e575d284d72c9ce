package tensor

// cpuid executes CPUID with the given leaf (eax) and subleaf (ecx).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// hasAVX2 is the one CPU-feature check behind every AVX2 kernel in the
// tensor packages: the CPU implements AVX and AVX2, and the OS saves the
// YMM register state across context switches (OSXSAVE, XCR0 bits 1-2).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 0x6     // XCR0: SSE and AVX state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// HasAVX2 reports whether the AVX2 slice kernels run on this CPU. When it
// is false every kernel falls back to its scalar Go reference.
func HasAVX2() bool { return hasAVX2 }
