package tensor

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"

	"scalegnn/internal/par"
)

// DropoutMinChunk is the fewest elements one worker of DropoutInto's PCG
// fill takes: about ten microseconds of draws, so a split pays for the
// goroutine it starts.
const DropoutMinChunk = 4096

// The PCG's multiplier and increment and DXSM's multiplier, from
// $GOROOT/src/math/rand/v2/pcg.go (PCG.next and PCG.Uint64).
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
	pcgDXSM  = 0xda942042e4dd58b5
)

// DropoutInto writes inverted dropout of src into dst: src[i]/(1−p) where
// the element is kept and +0 where it is dropped, and records each 0/1 keep
// bit in keep. The reference definition is the serial loop below: one
// rng.Uint64() per element, in element order, kept iff the draw's low 53
// bits are at least ⌈p·2⁵³⌉ — exactly rng.Float64() >= p, since Float64 is
// those bits over 2⁵³ and p·2⁵³ is exact — so the draws and the mask do not
// depend on T. A *rand.PCG source is filled on every core instead: each
// worker starts from the state jumped to its first element (pcgJump), and
// the PCG is left at the state jumped by len(src). Output, keep bits and
// every later draw are then the serial loop's at any worker count. dst and
// keep must be at least as long as src; p is in [0, 1).
func DropoutInto[T Elem](dst, src []T, keep []uint8, p float64, rng rand.Source) {
	dst, keep = dst[:len(src)], keep[:len(src)]
	scale := T(1 / (1 - p))
	thr := uint64(math.Ceil(p * (1 << 53)))
	pcg, ok := rng.(*rand.PCG)
	if !ok {
		for i, v := range src {
			k := dropKeep(rng.Uint64(), thr)
			dst[i] = Gate(v*scale, k)
			keep[i] = k
		}
		return
	}
	var buf [20]byte
	state, _ := pcg.AppendBinary(buf[:0]) // a PCG's encoding cannot fail
	hi, lo := binary.BigEndian.Uint64(state[4:]), binary.BigEndian.Uint64(state[12:])
	par.Range(len(src), DropoutMinChunk, func(first, end int) {
		h, l := pcgJump(hi, lo, uint64(first))
		dropoutPCG(dst[first:end], src[first:end], keep[first:end], scale, thr, h, l)
	})
	pcg.Seed(pcgJump(hi, lo, uint64(len(src))))
}

// dropKeep is 1 when draw's low 53 bits are at least thr and 0 otherwise,
// as the borrow of low53 − thr: both are below 2⁵³, so the difference
// wraps (sets bit 63) iff low53 < thr.
func dropKeep(draw, thr uint64) uint8 {
	return uint8(1 ^ (draw&(1<<53-1)-thr)>>63)
}

// dropoutPCG is the serial loop with PCG.Uint64 stepped in registers from
// the state (hi, lo): the same draws, with no interface call per element.
func dropoutPCG[T Elem](dst, src []T, keep []uint8, scale T, thr, hi, lo uint64) {
	dst, keep = dst[:len(src)], keep[:len(src)]
	for i, v := range src {
		// PCG.next, then PCG.Uint64's DXSM output mix.
		hi, lo = mul128(hi, lo, pcgMulHi, pcgMulLo)
		hi, lo = add128(hi, lo, pcgIncHi, pcgIncLo)
		h, l := hi, lo
		h ^= h >> 32
		h *= pcgDXSM
		h ^= h >> 48
		h *= l | 1
		k := dropKeep(h, thr)
		dst[i] = Gate(v*scale, k)
		keep[i] = k
	}
}

// pcgJump returns the PCG state (hi, lo) advanced by n steps. A step is
// s' = a·s + c (mod 2¹²⁸), so n steps are s ↦ aⁿ·s + c·(aⁿ−1)/(a−1),
// composed here from the 2ᵏ-step maps that n's set bits select in O(log n)
// 128-bit multiplies (Brown, "Random Number Generation with Arbitrary
// Strides", 1994).
func pcgJump(hi, lo, n uint64) (uint64, uint64) {
	// s ↦ m·s + i is the map of the steps composed so far, s ↦ a·s + c
	// the 2ᵏ-step map.
	mHi, mLo, iHi, iLo := uint64(0), uint64(1), uint64(0), uint64(0)
	aHi, aLo, cHi, cLo := uint64(pcgMulHi), uint64(pcgMulLo), uint64(pcgIncHi), uint64(pcgIncLo)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 { // then the 2ᵏ steps: a·(m·s + i) + c
			mHi, mLo = mul128(aHi, aLo, mHi, mLo)
			iHi, iLo = mul128(aHi, aLo, iHi, iLo)
			iHi, iLo = add128(iHi, iLo, cHi, cLo)
		}
		// Twice the 2ᵏ-step map: a·(a·s + c) + c = a²·s + (a+1)·c.
		a1Hi, a1Lo := add128(aHi, aLo, 0, 1)
		cHi, cLo = mul128(a1Hi, a1Lo, cHi, cLo)
		aHi, aLo = mul128(aHi, aLo, aHi, aLo)
	}
	hi, lo = mul128(mHi, mLo, hi, lo)
	return add128(hi, lo, iHi, iLo)
}

// mul128 returns x·y mod 2¹²⁸ for 128-bit x and y given as hi:lo.
func mul128(xHi, xLo, yHi, yLo uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(xLo, yLo)
	return hi + xHi*yLo + xLo*yHi, lo
}

// add128 returns x + y mod 2¹²⁸ for 128-bit x and y given as hi:lo.
func add128(xHi, xLo, yHi, yLo uint64) (uint64, uint64) {
	lo, c := bits.Add64(xLo, yLo, 0)
	hi, _ := bits.Add64(xHi, yHi, c)
	return hi, lo
}
