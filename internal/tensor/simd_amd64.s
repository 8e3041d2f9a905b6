// AVX2 kernels for both numeric tiers, behind the one simdOn gate.
//
// float32 (raw-speed tier): FMA, and the gemm tile and dot kernels keep four
// independent partial accumulators to hide FMA latency; that reassociates
// the k-sum, which the float32 tier explicitly permits (parity with float64
// is tolerance-based).
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

// func f32DotAVX(x, y []float32) float32
//
// Returns dot(x, y) over len(x) elements (caller guarantees equal lengths).
// Four YMM partial accumulators, reduced at the end.
TEXT ·f32DotAVX(SB), NOSPLIT, $0-52
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ CX, BX
	ANDQ $-32, BX
	XORQ AX, AX
loop32:
	CMPQ AX, BX
	JGE  head8
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	VMOVUPS 32(SI)(AX*4), Y5
	VFMADD231PS 32(DI)(AX*4), Y5, Y1
	VMOVUPS 64(SI)(AX*4), Y6
	VFMADD231PS 64(DI)(AX*4), Y6, Y2
	VMOVUPS 96(SI)(AX*4), Y7
	VFMADD231PS 96(DI)(AX*4), Y7, Y3
	ADDQ $32, AX
	JMP  loop32
head8:
	MOVQ CX, BX
	ANDQ $-8, BX
loop8:
	CMPQ AX, BX
	JGE  reduce
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	ADDQ $8, AX
	JMP  loop8
reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
scalar:
	CMPQ AX, CX
	JGE  done
	VMOVSS (SI)(AX*4), X1
	VFMADD231SS (DI)(AX*4), X1, X0
	INCQ AX
	JMP  scalar
done:
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// func f32GemmTileAVX(a, b, acc []float32, stride int)
//
// acc[0:8] += sum_k a[k] * b[k*stride : k*stride+8] — one 8-column output
// tile of the register-blocked matmul. Four k-strided partial accumulators
// hide FMA latency; they are summed into acc at the end.
TEXT ·f32GemmTileAVX(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	MOVQ acc_base+48(FP), DI
	MOVQ stride+72(FP), R9
	SHLQ $2, R9          // stride in bytes
	VMOVUPS (DI), Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ AX, AX
loop4:
	CMPQ AX, BX
	JGE  tail
	VBROADCASTSS (SI)(AX*4), Y4
	VFMADD231PS (DX), Y4, Y0
	VBROADCASTSS 4(SI)(AX*4), Y5
	VFMADD231PS (DX)(R9*1), Y5, Y1
	LEAQ (DX)(R9*2), R10
	VBROADCASTSS 8(SI)(AX*4), Y6
	VFMADD231PS (R10), Y6, Y2
	VBROADCASTSS 12(SI)(AX*4), Y7
	VFMADD231PS (R10)(R9*1), Y7, Y3
	LEAQ (R10)(R9*2), DX
	ADDQ $4, AX
	JMP  loop4
tail:
	CMPQ AX, CX
	JGE  sum
	VBROADCASTSS (SI)(AX*4), Y4
	VFMADD231PS (DX), Y4, Y0
	ADDQ R9, DX
	INCQ AX
	JMP  tail
sum:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func f64AxpyAVX(a float64, x, y []float64)
//
// y[i] = y[i] + a*x[i] for i < len(y), the product rounded before the add
// (no FMA). Caller guarantees len(x) == len(y).
TEXT ·f64AxpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y8
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	MOVQ CX, BX
	ANDQ $-16, BX
	XORQ AX, AX
loop16:
	CMPQ AX, BX
	JGE  head4
	VMULPD (SI)(AX*8), Y8, Y0
	VMULPD 32(SI)(AX*8), Y8, Y1
	VMULPD 64(SI)(AX*8), Y8, Y2
	VMULPD 96(SI)(AX*8), Y8, Y3
	VADDPD (DI)(AX*8), Y0, Y0
	VADDPD 32(DI)(AX*8), Y1, Y1
	VADDPD 64(DI)(AX*8), Y2, Y2
	VADDPD 96(DI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  loop16
head4:
	MOVQ CX, BX
	ANDQ $-4, BX
loop4:
	CMPQ AX, BX
	JGE  scalar
	VMULPD (SI)(AX*8), Y8, Y0
	VADDPD (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  loop4
scalar:
	CMPQ AX, CX
	JGE  done
	VMULSD (SI)(AX*8), X8, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  scalar
done:
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
