// AVX2 kernels for both numeric tiers, behind the one simdOn gate.
//
// float32 (raw-speed tier): fused multiply-add. The block kernel,
// f32Gemm4x16AVX, keeps one accumulator per output element and runs it
// over k in increasing order, with no zero skip: every element of a
// product is one FMA chain from 0, so its bits do not depend on how the
// caller blocks rows, columns or k, or on how many workers split the rows.
// Parity with float64 (and with the scalar loops, which do not fuse) is
// tolerance-based.
//
// float64 (reference tier): every kernel gives the bits of its plain-Go
// body — a separate multiply (VMULPD) and add (VADDPD) per term, never a
// fused multiply-add, one accumulator per output element, terms added in
// the caller's k / CSR-arc order. f64AccumRowsAVX skips a zero coefficient
// exactly as the scalar `== 0` test does (skipping and adding 0*x differ
// on -0, Inf and NaN); f64Gemm4x8AVX adds 0*x and reports a NaN result,
// the one case where that can differ, so its caller can rerun the rows.
// scripts/check.sh rejects any double-precision FMA mnemonic in this file.

#include "textflag.h"

// func cpuHasAVX2FMA() bool
//
// True when the CPU and OS support AVX2 + FMA + OS-managed YMM state:
// CPUID.1:ECX has FMA(12), OSXSAVE(27), AVX(28); XCR0 has XMM|YMM;
// CPUID.7.0:EBX has AVX2(5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL $0x18001000, R9 // (1<<28)|(1<<27)|(1<<12)
	ANDL R9, CX
	CMPL CX, R9
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XCR0: XMM|YMM state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1 << 5), BX  // AVX2
	JEQ  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func f32AxpyAVX(a float32, x, y []float32)
//
// y[i] += a * x[i] for i < len(y). Caller guarantees len(x) == len(y).
// Elements are independent, so vectorization never reassociates a sum.
TEXT ·f32AxpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y3
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	MOVQ CX, BX
	ANDQ $-16, BX
	XORQ AX, AX
loop16:
	CMPQ AX, BX
	JGE  head8
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS 32(SI)(AX*4), Y1
	VFMADD213PS (DI)(AX*4), Y3, Y0   // Y0 = a*x + y
	VFMADD213PS 32(DI)(AX*4), Y3, Y1
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	ADDQ $16, AX
	JMP  loop16
head8:
	MOVQ CX, BX
	ANDQ $-8, BX
loop8:
	CMPQ AX, BX
	JGE  scalar
	VMOVUPS (SI)(AX*4), Y0
	VFMADD213PS (DI)(AX*4), Y3, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  loop8
scalar:
	CMPQ AX, CX
	JGE  done
	VMOVSS (SI)(AX*4), X0
	VFMADD213SS (DI)(AX*4), X3, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  scalar
done:
	VZEROUPPER
	RET

// func f32Gemm4x16AVX(k int, a []float32, lda, ka int, b []float32, ldb int, c []float32, ldc, panels int, fresh bool)
//
// c[r*ldc+j] += sum over kk < k, in increasing kk, of
// a[r*lda+kk*ka] * b[kk*ldb+j], for the 4 rows r and the 16·panels columns
// j of one output block, swept one 16-column panel at a time. A panel's
// 64 partial sums live in Y0-Y7 across all k, loaded from c (or set to +0
// when fresh) at the start and stored at the end; per k, two loads of b
// and four broadcasts of a feed eight FMAs. Each output element is
// therefore one FMA chain over k in increasing order, continued from the
// value c held, whatever the caller's blocking. The two strides of a let
// the caller pass a (ka = 1) or aᵀ (lda = 1) in place. Caller guarantees
// the elements it names lie inside a, b and c (strides in elements).
TEXT ·f32Gemm4x16AVX(SB), NOSPLIT, $0-121
	MOVQ a_base+8(FP), R13
	MOVQ lda+32(FP), R8
	SHLQ $2, R8              // lda in bytes
	LEAQ (R8)(R8*2), R11     // 3*lda in bytes
	MOVQ ka+40(FP), R12
	SHLQ $2, R12             // ka in bytes
	MOVQ b_base+48(FP), R14  // this panel of b
	MOVQ ldb+72(FP), R9
	SHLQ $2, R9              // ldb in bytes
	MOVQ c_base+80(FP), DI   // this panel of c
	MOVQ ldc+104(FP), R10
	SHLQ $2, R10             // ldc in bytes
	MOVQ panels+112(FP), AX
	MOVBLZX fresh+120(FP), BX
panel:
	TESTQ AX, AX
	JEQ  done
	TESTQ BX, BX
	JNE  zero
	LEAQ (DI)(R10*2), CX     // c row 2
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R10*1), Y2
	VMOVUPS 32(DI)(R10*1), Y3
	VMOVUPS (CX), Y4
	VMOVUPS 32(CX), Y5
	VMOVUPS (CX)(R10*1), Y6
	VMOVUPS 32(CX)(R10*1), Y7
	JMP  ready
zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
ready:
	MOVQ R13, SI
	MOVQ R14, DX
	MOVQ k+0(FP), CX
	TESTQ CX, CX
	JEQ  store
loop:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (SI)(R8*1), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (SI)(R8*2), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VBROADCASTSS (SI)(R11*1), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ R9, DX
	ADDQ R12, SI
	DECQ CX
	JNZ  loop
store:
	LEAQ (DI)(R10*2), CX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R10*1)
	VMOVUPS Y3, 32(DI)(R10*1)
	VMOVUPS Y4, (CX)
	VMOVUPS Y5, 32(CX)
	VMOVUPS Y6, (CX)(R10*1)
	VMOVUPS Y7, 32(CX)(R10*1)
	ADDQ $64, DI
	ADDQ $64, R14
	DECQ AX
	JMP  panel
done:
	VZEROUPPER
	RET

// func f64Gemm4x8AVX(k int, a []float64, lda, ka int, b []float64, ldb int, c []float64, ldc, panels int, fresh bool) bool
//
// c[r*ldc+j] += sum over kk < k, in increasing kk, of
// a[r*lda+kk*ka] * b[kk*ldb+j], for the 4 rows r and the 8·panels columns
// j of one output block, swept one 8-column panel at a time, with the
// strides of f32Gemm4x16AVX. A panel's 32 partial sums live in Y0-Y7
// across all k, loaded from c (or set to +0 when fresh) at the start and
// stored at the end; per k, two loads of b and four broadcasts of a feed
// eight VMULPD, each followed by its VADDPD: one accumulator per element,
// product rounded before the add, terms in increasing k.
//
// A zero a-term is not skipped: 0·b is added. That gives the skipping
// loop's bits whenever the result is not NaN. An accumulator that starts
// at +0 never becomes −0 under round-to-nearest (a sum is −0 only when
// both addends are), so adding ±0 leaves it unchanged; 0·b is ±0 unless b
// is ±Inf or NaN, and then the element is NaN and stays NaN. So the kernel
// returns true when any stored element of the block is NaN (VCMPPD
// unordered at each store), and the caller recomputes those rows with the
// skipping f64AccumRows.
TEXT ·f64Gemm4x8AVX(SB), NOSPLIT, $0-129
	MOVQ a_base+8(FP), R13
	MOVQ lda+32(FP), R8
	SHLQ $3, R8              // lda in bytes
	LEAQ (R8)(R8*2), R11     // 3*lda in bytes
	MOVQ ka+40(FP), R12
	SHLQ $3, R12             // ka in bytes
	MOVQ b_base+48(FP), R14  // this panel of b
	MOVQ ldb+72(FP), R9
	SHLQ $3, R9              // ldb in bytes
	MOVQ c_base+80(FP), DI   // this panel of c
	MOVQ ldc+104(FP), R10
	SHLQ $3, R10             // ldc in bytes
	MOVQ panels+112(FP), AX
	MOVBLZX fresh+120(FP), BX
	VXORPD Y15, Y15, Y15     // lanes that have held a NaN
panel:
	TESTQ AX, AX
	JEQ  done
	TESTQ BX, BX
	JNE  zero
	LEAQ (DI)(R10*2), CX     // c row 2
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R10*1), Y2
	VMOVUPD 32(DI)(R10*1), Y3
	VMOVUPD (CX), Y4
	VMOVUPD 32(CX), Y5
	VMOVUPD (CX)(R10*1), Y6
	VMOVUPD 32(CX)(R10*1), Y7
	JMP  ready
zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
ready:
	MOVQ R13, SI
	MOVQ R14, DX
	MOVQ k+0(FP), CX
	TESTQ CX, CX
	JEQ  store
loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (SI)(R8*1), Y13
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y13
	VADDPD Y14, Y2, Y2
	VADDPD Y13, Y3, Y3
	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (SI)(R11*1), Y13
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y13
	VADDPD Y14, Y6, Y6
	VADDPD Y13, Y7, Y7
	ADDQ R9, DX
	ADDQ R12, SI
	DECQ CX
	JNZ  loop
store:
	LEAQ (DI)(R10*2), CX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	VMOVUPD Y4, (CX)
	VMOVUPD Y5, 32(CX)
	VMOVUPD Y6, (CX)(R10*1)
	VMOVUPD Y7, 32(CX)(R10*1)
	VCMPPD $3, Y1, Y0, Y8    // unordered: either lane is NaN
	VCMPPD $3, Y3, Y2, Y9
	VCMPPD $3, Y5, Y4, Y10
	VCMPPD $3, Y7, Y6, Y11
	VORPD Y8, Y9, Y8
	VORPD Y10, Y11, Y10
	VORPD Y8, Y15, Y15
	VORPD Y10, Y15, Y15
	ADDQ $64, DI
	ADDQ $64, R14
	DECQ AX
	JMP  panel
done:
	VMOVMSKPD Y15, AX
	TESTL AX, AX
	SETNE ret+128(FP)
	VZEROUPPER
	RET

// func f64AccumRowsAVX(coef []float64, idx []int32, x []float64, nrows, stride int, acc []float64) bool
//
// acc[j] += sum over k, in increasing k, of coef[k] * x[idx[k]*stride + j],
// for j < len(acc); terms with coef[k] == 0 are skipped. This is one
// destination row of the CSR SpMM (idx = the row's arcs) and, with idx the
// identity, one k-tile of a matmul output row. Columns go in blocks of 32
// whose partial sums stay in Y0-Y7 across all k, so acc is loaded and
// stored once per block instead of once per term; the remainder goes in
// blocks of 4, then one column at a time. Each column has its own
// accumulator and sees its terms in k order, multiply rounded before the
// add, so the result is bitwise that of the scalar loop.
//
// Returns false, with acc partly updated, if some idx[k] >= nrows (as
// unsigned, so negatives too). Caller guarantees len(idx) == len(coef) and
// (nrows-1)*stride + len(acc) <= len(x).
TEXT ·f64AccumRowsAVX(SB), NOSPLIT, $0-113
	MOVQ coef_base+0(FP), SI
	MOVQ coef_len+8(FP), CX
	MOVQ idx_base+24(FP), R8
	MOVQ x_base+48(FP), DX
	MOVQ nrows+72(FP), R12
	MOVQ stride+80(FP), R9
	SHLQ $3, R9              // stride in bytes
	MOVQ acc_base+88(FP), DI
	MOVQ acc_len+96(FP), R13
	VXORPD X15, X15, X15     // 0.0 for the skip test

blk32:
	CMPQ R13, $32
	JLT  blk4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ AX, AX
	JMP  check32
k32:
	VMOVSD (SI)(AX*8), X8
	VUCOMISD X15, X8
	JNE  term32
	JPC  next32              // equal and ordered: coef == 0, skip (NaN is unordered)
term32:
	MOVL (R8)(AX*4), R10
	CMPQ R10, R12
	JAE  bad
	IMULQ R9, R10
	ADDQ DX, R10
	VBROADCASTSD X8, Y8
	VMULPD (R10), Y8, Y9
	VMULPD 32(R10), Y8, Y10
	VMULPD 64(R10), Y8, Y11
	VMULPD 96(R10), Y8, Y12
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VMULPD 128(R10), Y8, Y9
	VMULPD 160(R10), Y8, Y10
	VMULPD 192(R10), Y8, Y11
	VMULPD 224(R10), Y8, Y12
	VADDPD Y9, Y4, Y4
	VADDPD Y10, Y5, Y5
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
next32:
	INCQ AX
check32:
	CMPQ AX, CX
	JLT  k32
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, R13
	JMP  blk32

blk4:
	CMPQ R13, $4
	JLT  blk1
	VMOVUPD (DI), Y0
	XORQ AX, AX
	JMP  check4
k4:
	VMOVSD (SI)(AX*8), X8
	VUCOMISD X15, X8
	JNE  term4
	JPC  next4
term4:
	MOVL (R8)(AX*4), R10
	CMPQ R10, R12
	JAE  bad
	IMULQ R9, R10
	VBROADCASTSD X8, Y8
	VMULPD (DX)(R10*1), Y8, Y9
	VADDPD Y9, Y0, Y0
next4:
	INCQ AX
check4:
	CMPQ AX, CX
	JLT  k4
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, R13
	JMP  blk4

blk1:
	TESTQ R13, R13
	JEQ  ok
	VMOVSD (DI), X0
	XORQ AX, AX
	JMP  check1
k1:
	VMOVSD (SI)(AX*8), X8
	VUCOMISD X15, X8
	JNE  term1
	JPC  next1
term1:
	MOVL (R8)(AX*4), R10
	CMPQ R10, R12
	JAE  bad
	IMULQ R9, R10
	VMULSD (DX)(R10*1), X8, X9
	VADDSD X9, X0, X0
next1:
	INCQ AX
check1:
	CMPQ AX, CX
	JLT  k1
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ R13
	JMP  blk1

ok:
	VZEROUPPER
	MOVB $1, ret+112(FP)
	RET
bad:
	VZEROUPPER
	MOVB $0, ret+112(FP)
	RET
