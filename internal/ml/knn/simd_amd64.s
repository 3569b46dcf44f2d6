// AVX-512 cosine-distance kernel. See simd_amd64.go for the contract.
//
// Bit-identity with the scalar reference is the design constraint: each
// vector lane holds ONE candidate row and accumulates qv*b[j] in strict
// feature order with separate VMULPD/VADDPD (never FMA), so every lane
// performs exactly the multiply-round-add-round sequence of the scalar
// loop. VSQRTPD/VDIVPD/VSUBPD are IEEE-correctly-rounded per lane,
// matching math.Sqrt and scalar division bit for bit.

#include "textflag.h"

DATA one64<>+0(SB)/8, $(1.0)
GLOBL one64<>(SB), RODATA|NOPTR, $8

// func cosineBlock64(q *float64, p int, col *float64, stride int, na float64, sq *float64, dist *float64)
//
// For lanes l = 0..63:
//   dot[l]  = sum over j of q[j] * col[j*stride + l]   (sequential j order)
//   dist[l] = 1 - dot[l]/sqrt(na*sq[l]), or 1 when sq[l] == 0
//
// The caller guarantees na != 0, p >= 1, and 64 addressable lanes in
// col/sq/dist (the training matrix is padded to a multiple of 64 rows).
// Eight independent accumulator chains (Z0-Z7) hide the VADDPD latency;
// one query broadcast feeds all 64 lanes of a feature column.
TEXT ·cosineBlock64(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ p+8(FP), CX
	MOVQ col+16(FP), DI
	MOVQ stride+24(FP), R8
	SHLQ $3, R8 // column step in bytes

	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7

loop:
	VBROADCASTSD (SI), Z8
	VMOVUPD (DI), Z9
	VMOVUPD 64(DI), Z10
	VMOVUPD 128(DI), Z11
	VMOVUPD 192(DI), Z12
	VMOVUPD 256(DI), Z13
	VMOVUPD 320(DI), Z14
	VMOVUPD 384(DI), Z15
	VMOVUPD 448(DI), Z16
	VMULPD Z8, Z9, Z9
	VMULPD Z8, Z10, Z10
	VMULPD Z8, Z11, Z11
	VMULPD Z8, Z12, Z12
	VMULPD Z8, Z13, Z13
	VMULPD Z8, Z14, Z14
	VMULPD Z8, Z15, Z15
	VMULPD Z8, Z16, Z16
	VADDPD Z9, Z0, Z0
	VADDPD Z10, Z1, Z1
	VADDPD Z11, Z2, Z2
	VADDPD Z12, Z3, Z3
	VADDPD Z13, Z4, Z4
	VADDPD Z14, Z5, Z5
	VADDPD Z15, Z6, Z6
	VADDPD Z16, Z7, Z7
	ADDQ $8, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  loop

	// Finish: dist = 1 - dot/sqrt(na*nb), with nb == 0 lanes forced to 1.
	VBROADCASTSD na+32(FP), Z17
	VBROADCASTSD one64<>(SB), Z18
	VXORPD Z19, Z19, Z19
	MOVQ sq+40(FP), R9
	MOVQ dist+48(FP), R10

	VMOVUPD (R9), Z9
	VCMPPD $0, Z19, Z9, K1 // K1: lanes with nb == 0
	VMULPD Z17, Z9, Z9     // na*nb
	VSQRTPD Z9, Z9
	VDIVPD Z9, Z0, Z0      // dot/sqrt(na*nb)
	VSUBPD Z0, Z18, Z0     // 1 - ...
	VMOVUPD Z18, K1, Z0    // vanishing-norm convention: distance 1
	VMOVUPD Z0, (R10)

	VMOVUPD 64(R9), Z9
	VCMPPD $0, Z19, Z9, K1
	VMULPD Z17, Z9, Z9
	VSQRTPD Z9, Z9
	VDIVPD Z9, Z1, Z1
	VSUBPD Z1, Z18, Z1
	VMOVUPD Z18, K1, Z1
	VMOVUPD Z1, 64(R10)

	VMOVUPD 128(R9), Z9
	VCMPPD $0, Z19, Z9, K1
	VMULPD Z17, Z9, Z9
	VSQRTPD Z9, Z9
	VDIVPD Z9, Z2, Z2
	VSUBPD Z2, Z18, Z2
	VMOVUPD Z18, K1, Z2
	VMOVUPD Z2, 128(R10)

	VMOVUPD 192(R9), Z9
	VCMPPD $0, Z19, Z9, K1
	VMULPD Z17, Z9, Z9
	VSQRTPD Z9, Z9
	VDIVPD Z9, Z3, Z3
	VSUBPD Z3, Z18, Z3
	VMOVUPD Z18, K1, Z3
	VMOVUPD Z3, 192(R10)

	VMOVUPD 256(R9), Z9
	VCMPPD $0, Z19, Z9, K1
	VMULPD Z17, Z9, Z9
	VSQRTPD Z9, Z9
	VDIVPD Z9, Z4, Z4
	VSUBPD Z4, Z18, Z4
	VMOVUPD Z18, K1, Z4
	VMOVUPD Z4, 256(R10)

	VMOVUPD 320(R9), Z9
	VCMPPD $0, Z19, Z9, K1
	VMULPD Z17, Z9, Z9
	VSQRTPD Z9, Z9
	VDIVPD Z9, Z5, Z5
	VSUBPD Z5, Z18, Z5
	VMOVUPD Z18, K1, Z5
	VMOVUPD Z5, 320(R10)

	VMOVUPD 384(R9), Z9
	VCMPPD $0, Z19, Z9, K1
	VMULPD Z17, Z9, Z9
	VSQRTPD Z9, Z9
	VDIVPD Z9, Z6, Z6
	VSUBPD Z6, Z18, Z6
	VMOVUPD Z18, K1, Z6
	VMOVUPD Z6, 384(R10)

	VMOVUPD 448(R9), Z9
	VCMPPD $0, Z19, Z9, K1
	VMULPD Z17, Z9, Z9
	VSQRTPD Z9, Z9
	VDIVPD Z9, Z7, Z7
	VSUBPD Z7, Z18, Z7
	VMOVUPD Z18, K1, Z7
	VMOVUPD Z7, 448(R10)

	// Clear the upper vector state. Without it, the SSE code the Go
	// compiler emits for scalar float math runs at a large penalty on
	// this thread afterwards.
	VZEROUPPER
	RET

// func x86HasAVX512F() bool
//
// True when the CPU and OS support AVX-512F: CPUID max leaf >= 7,
// OSXSAVE+AVX in CPUID.1:ECX, XCR0 enabling SSE/AVX and the three
// AVX-512 state components, and AVX512F in CPUID.7.0:EBX.
TEXT ·x86HasAVX512F(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JL   done

	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8 // OSXSAVE | AVX
	CMPL R8, $(1<<27 | 1<<28)
	JNE  done

	MOVL $0, CX
	XGETBV
	ANDL $0xE6, AX // XMM|YMM|opmask|ZMM_Hi256|Hi16_ZMM
	CMPL AX, $0xE6
	JNE  done

	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL BX, R8
	ANDL $(1<<16), R8 // AVX512F
	JZ   done
	MOVB $1, ret+0(FP)

done:
	RET
