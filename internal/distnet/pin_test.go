package distnet

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestRowsFrameBytesPinned: the rows frame is what two builds of gnntrain
// exchange, so its bytes are a contract. One frame at each dtype must
// encode to exactly these bytes, and decode back to its header fields.
func TestRowsFrameBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		hex   string
		seq   uint64
		epoch int64
		site  string
	}{
		{"float64", f64RowsFrame(), "53474e5802020100450000002a0000000000000007000000000000000002000000020000000200613303000000000000000000f83f00000000000002c009000000000000000000000083b63ad29712c0019b79a636", 42, 7, "a3"},
		{"float32", f32RowsFrame(), "53474e58020200002c00000001000000000000000000000000000000010300000001000000010073000000000000c03f000080be0000e040edc06045", 1, 0, "s"},
	} {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tc.frame, want) {
			t.Fatalf("%s: encodeRows wrote\n%x\nwant\n%x", tc.name, tc.frame, want)
		}
		f, err := pipeRead(t, want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m, err := decodeRows(f)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if m.seq != tc.seq || m.epoch != tc.epoch || m.site != tc.site {
			t.Fatalf("%s: seq=%d epoch=%d site=%q", tc.name, m.seq, m.epoch, m.site)
		}
	}
}
