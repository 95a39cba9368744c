//go:build amd64 && !purego

#include "textflag.h"

// tailMask: eight all-ones words, then eight zero words. Loading eight
// words at word offset 8-r yields a mask selecting lanes 0..r-1.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func dotRowsAVX2(dst, q, rows []float32)
//
// The same arithmetic as dotRowsGo, eight lanes to a YMM register:
// VMULPS then VADDPS (never an FMA), lane i%8 for element i, and the
// reduction (l0+l4, l1+l5, l2+l6, l3+l7) -> (+l2.., +l3..) -> sum. The
// dim%8 trailing elements are loaded under a mask; the masked-off lanes
// add 0*0 = +0, which leaves a lane unchanged because a lane that starts
// at +0 can never hold -0.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX   // rows left
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), DX    // dim
	MOVQ rows_base+48(FP), BX
	TESTQ CX, CX
	JZ   done
	MOVQ DX, R8
	ANDQ $7, R8              // r = dim % 8
	MOVQ DX, R9
	SUBQ R8, R9              // dim - r
	MOVQ $8, R11
	SUBQ R8, R11
	LEAQ tailMask<>(SB), R10
	VMOVDQU (R10)(R11*4), Y3

row:
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
	TESTQ R9, R9
	JZ   tail

block:
	VMOVUPS (SI)(AX*4), Y1
	VMULPS (BX)(AX*4), Y1, Y1
	VADDPS Y1, Y0, Y0
	ADDQ $8, AX
	CMPQ AX, R9
	JLT  block

tail:
	TESTQ R8, R8
	JZ   reduce
	VMASKMOVPS (SI)(AX*4), Y3, Y1
	VMASKMOVPS (BX)(AX*4), Y3, Y2
	VMULPS Y2, Y1, Y1
	VADDPS Y1, Y0, Y0

reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0        // l0+l4 l1+l5 l2+l6 l3+l7
	VMOVHLPS X0, X0, X1
	VADDPS X1, X0, X0        // (l0+l4)+(l2+l6) (l1+l5)+(l3+l7)
	VMOVSHDUP X0, X1
	VADDSS X1, X0, X0
	VMOVSS X0, (DI)
	ADDQ $4, DI
	LEAQ (BX)(DX*4), BX
	DECQ CX
	JNZ  row
	VZEROUPPER

done:
	RET

// func dotCodesAVX2(dst, qp []int32, codes []int8)
//
// dotCodesGo, a group of eight rows to a YMM register: per pair, the
// group's sixteen codes widen to words (VPMOVSXBW), the query word is
// broadcast to all eight dwords, and one VPMADDWD forms the eight rows'
// two-term sums, which VPADDD adds to the rows' lanes — four pairs to a
// loop trip, then one at a time. The arithmetic is exact integer
// arithmetic, so the sums are the Go body's.
TEXT ·dotCodesAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ qp_base+24(FP), SI
	MOVQ qp_len+32(FP), DX   // pairs
	MOVQ codes_base+48(FP), BX
	SHRQ $3, CX              // groups
	JZ   cdone

cgroup:
	VPXOR Y0, Y0, Y0
	MOVQ SI, R8              // query words
	MOVQ DX, R9              // pairs left
	CMPQ R9, $4
	JLT  cpair

cfour:
	PREFETCHT0 1024(BX)      // the codes stream from memory on a cache miss
	VPMOVSXBW (BX), Y1
	VPBROADCASTD (R8), Y2
	VPMADDWD Y2, Y1, Y1
	VPMOVSXBW 16(BX), Y3
	VPBROADCASTD 4(R8), Y4
	VPMADDWD Y4, Y3, Y3
	VPMOVSXBW 32(BX), Y5
	VPBROADCASTD 8(R8), Y6
	VPMADDWD Y6, Y5, Y5
	VPMOVSXBW 48(BX), Y7
	VPBROADCASTD 12(R8), Y8
	VPMADDWD Y8, Y7, Y7
	VPADDD Y1, Y3, Y3
	VPADDD Y5, Y7, Y7
	VPADDD Y3, Y0, Y0
	VPADDD Y7, Y0, Y0
	ADDQ $64, BX
	ADDQ $16, R8
	SUBQ $4, R9
	CMPQ R9, $4
	JGE  cfour

cpair:
	TESTQ R9, R9
	JZ   cstore
	VPMOVSXBW (BX), Y1
	VPBROADCASTD (R8), Y2
	VPMADDWD Y2, Y1, Y1
	VPADDD Y1, Y0, Y0
	ADDQ $16, BX
	ADDQ $4, R8
	DECQ R9
	JMP  cpair

cstore:
	VMOVDQU Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  cgroup
	VZEROUPPER

cdone:
	RET

// func boundMaskAVX2(mask []uint64, acc []int32, w []float32, b *[4]float64)
//
// boundMaskGo, four rows to a YMM register of float64: the same multiply,
// add, multiply, add (never an FMA), then one VCMPPD with predicate
// NLT_US, which is true when the bound is not below the threshold or is
// NaN. len(acc) = 64·len(mask).
TEXT ·boundMaskAVX2(SB), NOSPLIT, $0-80
	MOVQ mask_base+0(FP), DI
	MOVQ mask_len+8(FP), R8  // words
	MOVQ acc_base+24(FP), SI
	MOVQ w_base+48(FP), BX
	MOVQ b+72(FP), AX
	TESTQ R8, R8
	JZ   bdone
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15

bword:
	XORQ R10, R10            // the word
	XORQ CX, CX              // its next bit

bquad:
	PREFETCHT0 256(BX)
	VCVTDQ2PD (SI), Y0
	VCVTPS2PD (BX), Y1
	VMULPD Y12, Y0, Y0       // acc*b0
	VADDPD Y13, Y0, Y0       // +b1
	VMULPD Y1, Y0, Y0        // *w
	VADDPD Y14, Y0, Y0       // +b2
	VCMPPD $5, Y15, Y0, Y0   // !(u < b3)
	VMOVMSKPD Y0, AX
	SHLQ CX, AX
	ORQ  AX, R10
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $4, CX
	CMPQ CX, $64
	JLT  bquad
	MOVQ R10, (DI)
	ADDQ $8, DI
	DECQ R8
	JNZ  bword
	VZEROUPPER

bdone:
	RET

// func triDotAVX2(h, r, t []float32) float32
//
// triDotGo, eight lanes to a YMM register: two VMULPS and a VADDPS per
// block (each product rounded, never an FMA), then dotRowsAVX2's tail
// mask and reduction. A masked-off lane adds (0*0)*0 = +0.
TEXT ·triDotAVX2(SB), NOSPLIT, $0-76
	MOVQ h_base+0(FP), SI
	MOVQ h_len+8(FP), DX     // dim
	MOVQ r_base+24(FP), BX
	MOVQ t_base+48(FP), DI
	MOVQ DX, R8
	ANDQ $7, R8              // r = dim % 8
	SUBQ R8, DX              // dim - r
	VXORPS Y0, Y0, Y0
	XORQ AX, AX
	TESTQ DX, DX
	JZ   tdtail

tdblock:
	VMOVUPS (SI)(AX*4), Y1
	VMULPS (BX)(AX*4), Y1, Y1
	VMULPS (DI)(AX*4), Y1, Y1
	VADDPS Y1, Y0, Y0
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  tdblock

tdtail:
	TESTQ R8, R8
	JZ   tdreduce
	MOVQ $8, R11
	SUBQ R8, R11
	LEAQ tailMask<>(SB), R10
	VMOVDQU (R10)(R11*4), Y3
	VMASKMOVPS (SI)(AX*4), Y3, Y1
	VMASKMOVPS (BX)(AX*4), Y3, Y2
	VMULPS Y2, Y1, Y1
	VMASKMOVPS (DI)(AX*4), Y3, Y2
	VMULPS Y2, Y1, Y1
	VADDPS Y1, Y0, Y0

tdreduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0        // l0+l4 l1+l5 l2+l6 l3+l7
	VMOVHLPS X0, X0, X1
	VADDPS X1, X0, X0        // (l0+l4)+(l2+l6) (l1+l5)+(l3+l7)
	VMOVSHDUP X0, X1
	VADDSS X1, X0, X0
	VMOVSS X0, ret+72(FP)
	VZEROUPPER
	RET

// TRI_UPDATE_LANES: (Y0, Y1, Y2) = (h, r, t) -> (h', r', t') with gf in Y6
// and decay in Y7; clobbers Y3-Y5. Multiplies and subtractions only.
#define TRI_UPDATE_LANES \
	VMULPS Y6, Y1, Y3 \ // gf*r
	VMULPS Y2, Y3, Y3 \ // (gf*r)*t
	VMULPS Y6, Y0, Y4 \ // gh = gf*h
	VMULPS Y2, Y4, Y5 \ // gh*t
	VMULPS Y1, Y4, Y4 \ // gh*r
	VMULPS Y7, Y0, Y0 \ // h*decay
	VMULPS Y7, Y1, Y1 \ // r*decay
	VMULPS Y7, Y2, Y2 \ // t*decay
	VSUBPS Y3, Y0, Y0 \ // h' = h*decay - (gf*r)*t
	VSUBPS Y5, Y1, Y1 \ // r' = r*decay - gh*t
	VSUBPS Y4, Y2, Y2    // t' = t*decay - gh*r

// func triUpdateAVX2(h, r, t []float32, gf, decay float32)
//
// triUpdateGo, eight elements to a block: all three rows are loaded
// before any is stored and the stores go h, r, t, so a block computes
// what eight iterations of the Go loop compute — also when h and t are
// one row (rows either coincide or are disjoint). The tail is loaded and
// stored under the mask; nothing beyond dim is touched.
TEXT ·triUpdateAVX2(SB), NOSPLIT, $0-80
	MOVQ h_base+0(FP), SI
	MOVQ h_len+8(FP), DX     // dim
	MOVQ r_base+24(FP), BX
	MOVQ t_base+48(FP), DI
	VBROADCASTSS gf+72(FP), Y6
	VBROADCASTSS decay+76(FP), Y7
	MOVQ DX, R8
	ANDQ $7, R8              // r = dim % 8
	SUBQ R8, DX              // dim - r
	XORQ AX, AX
	TESTQ DX, DX
	JZ   tutail

tublock:
	VMOVUPS (SI)(AX*4), Y0   // h
	VMOVUPS (BX)(AX*4), Y1   // r
	VMOVUPS (DI)(AX*4), Y2   // t
	TRI_UPDATE_LANES
	VMOVUPS Y0, (SI)(AX*4)
	VMOVUPS Y1, (BX)(AX*4)
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  tublock

tutail:
	TESTQ R8, R8
	JZ   tudone
	MOVQ $8, R11
	SUBQ R8, R11
	LEAQ tailMask<>(SB), R10
	VMOVDQU (R10)(R11*4), Y8
	VMASKMOVPS (SI)(AX*4), Y8, Y0
	VMASKMOVPS (BX)(AX*4), Y8, Y1
	VMASKMOVPS (DI)(AX*4), Y8, Y2
	TRI_UPDATE_LANES
	VMASKMOVPS Y0, Y8, (SI)(AX*4)
	VMASKMOVPS Y1, Y8, (BX)(AX*4)
	VMASKMOVPS Y2, Y8, (DI)(AX*4)

tudone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
