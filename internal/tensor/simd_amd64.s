// AVX2 kernels for both numeric tiers, behind the one simdOn gate.
//
// float32 (raw-speed tier): fused multiply-add. The one matmul kernel,
// f32Gemm4x16AVX, keeps one accumulator per output element and runs it
// over k in increasing order, with no zero skip: every element of a
// product is one FMA chain from 0, so its bits do not depend on how the
// caller blocks rows, columns or k, or on how many workers split the rows.
// Parity with float64 (and with the scalar loops, which do not fuse) is
// tolerance-based.
//
// float64 (reference tier): every kernel is element-wise identical to the
// scalar Go loop it replaces — a separate multiply (VMULPD) and add (VADDPD)
// per term, never a fused multiply-add, one accumulator per output element,
// terms added in the caller's k / CSR-arc order, and a zero coefficient
// skips its term exactly as the scalar `== 0` test does (skipping and adding
// 0*x differ on -0, Inf and NaN). scripts/check.sh rejects any
// double-precision FMA mnemonic in this file.

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

// func f32Gemm4x16AVX(k int, a []float32, lda, ka int, b []float32, ldb int, c []float32, ldc int)
//
// c[r*ldc+j] += sum over kk < k, in increasing kk, of
// a[r*lda+kk*ka] * b[kk*ldb+j], for the 4 rows r and 16 columns j of one
// output block. The block's 64 partial sums live in Y0-Y7 across all k,
// loaded from c at the start and stored at the end; per k, two loads of b
// and four broadcasts of a feed eight FMAs. Each output element is
// therefore one FMA chain over k in increasing order, continued from the
// value c held, whatever the caller's blocking. The two strides of a let
// the caller pass a (ka = 1) or aᵀ (lda = 1) in place. Caller guarantees
// the elements it names lie inside a, b and c (strides in elements).
TEXT ·f32Gemm4x16AVX(SB), NOSPLIT, $0-112
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ lda+32(FP), R8
	SHLQ $2, R8              // lda in bytes
	LEAQ (R8)(R8*2), R11     // 3*lda in bytes
	MOVQ ka+40(FP), R12
	SHLQ $2, R12             // ka in bytes
	MOVQ b_base+48(FP), DX
	MOVQ ldb+72(FP), R9
	SHLQ $2, R9              // ldb in bytes
	MOVQ c_base+80(FP), DI
	MOVQ ldc+104(FP), R10
	SHLQ $2, R10             // ldc in bytes
	LEAQ (DI)(R10*2), BX     // c row 2
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R10*1), Y2
	VMOVUPS 32(DI)(R10*1), Y3
	VMOVUPS (BX), Y4
	VMOVUPS 32(BX), Y5
	VMOVUPS (BX)(R10*1), Y6
	VMOVUPS 32(BX)(R10*1), Y7
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
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R10*1)
	VMOVUPS Y3, 32(DI)(R10*1)
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	VMOVUPS Y6, (BX)(R10*1)
	VMOVUPS Y7, 32(BX)(R10*1)
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
