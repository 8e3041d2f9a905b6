package ckpt

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// mixedSnapshotHex is the version-4 encoding of mixedSnapshot: a float32
// block and a float64 block behind the header, RNG, aux and run blobs.
const mixedSnapshotHex = "53474e4e434b5054040000002a0000000000000003000000000000000b000000000000000000000000000000ffffffffffffffff0000000000000000000000000000e83f030000000908070000000007000000726f756e643d35190000007b2266616d696c79223a22736763222c22686f7073223a327d0200000003007733320102000000020000000000c03f000010c059d90033000180450300773634000100000003000000000000000000f03f11ea2d81999771bd0000000000000000e876342a"

// TestSnapshotBytesPinned: the snapshot format is a contract with every
// file already on disk. The writer must produce these exact bytes, and the
// reader must accept them and write them back unchanged.
func TestSnapshotBytesPinned(t *testing.T) {
	want, err := hex.DecodeString(mixedSnapshotHex)
	if err != nil {
		t.Fatal(err)
	}
	if got := mixedSnapshot().Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode wrote\n%x\nwant\n%x", got, want)
	}
	s, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Decode then Encode wrote\n%x\nwant\n%x", got, want)
	}
}
