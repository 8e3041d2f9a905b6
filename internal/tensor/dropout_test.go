package tensor

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestPCGJumpMatchesStepping pins pcgJump to the stdlib PCG it mirrors:
// the state jumped by n equals the state after n Uint64 calls, compared
// through MarshalBinary, and the next draw of both is equal. A change to
// the stdlib's multiplier, increment or output mix fails here, not as a
// silently different dropout mask.
func TestPCGJumpMatchesStepping(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0x9e3779b97f4a7c15} {
		for _, n := range []uint64{0, 1, 2, 1000, 100003} {
			stepped := NewPCG(seed)
			for range n {
				stepped.Uint64()
			}
			jumped := NewPCG(seed)
			state, err := jumped.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			jumped.Seed(pcgJump(binary.BigEndian.Uint64(state[4:]), binary.BigEndian.Uint64(state[12:]), n))

			want, _ := stepped.MarshalBinary()
			got, _ := jumped.MarshalBinary()
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %#x, n=%d: jumped state %x, stepped %x", seed, n, got, want)
			}
			if a, b := jumped.Uint64(), stepped.Uint64(); a != b {
				t.Fatalf("seed %#x, n=%d: next draw %#x after the jump, %#x after stepping", seed, n, a, b)
			}
		}
	}
}
