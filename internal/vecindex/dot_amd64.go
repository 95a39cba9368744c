//go:build amd64 && !purego

package vecindex

// useAVX2 is decided once, at init: the CPU reports AVX2 and the OS
// saves the YMM state. Which body runs is unobservable (the two are
// bit-identical, see the package comment); build with -tags purego to
// force the Go body.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// dotRows is the scan kernel.
func dotRows(dst, q, rows []float32) {
	rows = rows[:len(dst)*len(q)] // the assembly trusts this bound
	if useAVX2 {
		dotRowsAVX2(dst, q, rows)
		return
	}
	dotRowsGo(dst, q, rows)
}

// dotCodes is the prefilter's integer kernel; len(dst) is a multiple of
// eight.
func dotCodes(dst, qp []int32, codes []int8) {
	codes = codes[:len(dst)*2*len(qp)] // the assembly trusts this bound
	if useAVX2 {
		dotCodesAVX2(dst, qp, codes)
		return
	}
	dotCodesGo(dst, qp, codes)
}

// boundMask is the prefilter's threshold pass: the AVX2 body takes the
// whole words of 64 rows, the Go body the rest.
func boundMask(mask []uint64, acc []int32, w []float32, b *[4]float64) {
	n := 0
	if useAVX2 {
		n = len(acc) &^ 63
		boundMaskAVX2(mask[:n/64], acc[:n], w[:n], b)
	}
	boundMaskGo(mask[n/64:], acc[n:], w[n:], b)
}

// TriDot is the score half of the training step kernel.
func TriDot(h, r, t []float32) float32 {
	r, t = r[:len(h)], t[:len(h)] // the assembly trusts these bounds
	if useAVX2 {
		return triDotAVX2(h, r, t)
	}
	return triDotGo(h, r, t)
}

// TriUpdate is the update half of the training step kernel.
func TriUpdate(h, r, t []float32, gf, decay float32) {
	r, t = r[:len(h)], t[:len(h)] // the assembly trusts these bounds
	if useAVX2 {
		triUpdateAVX2(h, r, t, gf, decay)
		return
	}
	triUpdateGo(h, r, t, gf, decay)
}

//go:noescape
func dotRowsAVX2(dst, q, rows []float32)

//go:noescape
func dotCodesAVX2(dst, qp []int32, codes []int8)

//go:noescape
func boundMaskAVX2(mask []uint64, acc []int32, w []float32, b *[4]float64)

//go:noescape
func triDotAVX2(h, r, t []float32) float32

//go:noescape
func triUpdateAVX2(h, r, t []float32, gf, decay float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
