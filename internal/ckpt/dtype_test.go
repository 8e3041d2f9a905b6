package ckpt

import (
	"math"
	"strings"
	"testing"

	"scalegnn/internal/tensor"
)

// TestFloat32BlockRoundTrip proves the format carries mixed-dtype
// blocks losslessly: float32 and float64 payloads keep their exact bits,
// and a block is read back only at its own dtype.
func TestFloat32BlockRoundTrip(t *testing.T) {
	w32 := []float32{1.5, -2.25, 3e-8, 4096.125, float32(math.NaN()), math.Float32frombits(0x7fc00001)}
	w64 := []float64{1, math.Pi, -1e-12, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123)}
	want := &Snapshot{
		Fingerprint: 42, Epoch: 3, Batch: -1, BestEpoch: -1, PatienceAnchor: 2,
		BestVal: 0.75,
		RNG:     []byte{9, 8, 7},
		Blocks:  []Block{NewBlock("w32", 2, 3, w32), NewBlock("w64", 1, 5, w64)},
	}
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(got.Blocks))
	}
	if b := got.Blocks[0]; b.Dtype != tensor.Float32 || b.Name != "w32" || b.Rows != 2 || b.Cols != 3 {
		t.Fatalf("float32 block header corrupted: %+v", b)
	}
	if b := got.Blocks[1]; b.Dtype != tensor.Float64 || b.Name != "w64" || b.Rows != 1 || b.Cols != 5 {
		t.Fatalf("float64 block header corrupted: %+v", b)
	}
	r32 := make([]float32, 6)
	if err := ReadBlock(got, "w32", 2, 3, r32); err != nil {
		t.Fatal(err)
	}
	for i, v := range w32 {
		if math.Float32bits(r32[i]) != math.Float32bits(v) {
			t.Fatalf("float32 payload[%d] = %v, want %v (must be bit-exact)", i, r32[i], v)
		}
	}
	r64 := make([]float64, 5)
	if err := ReadBlock(got, "w64", 1, 5, r64); err != nil {
		t.Fatal(err)
	}
	for i, v := range w64 {
		if math.Float64bits(r64[i]) != math.Float64bits(v) {
			t.Fatalf("float64 payload[%d] = %v, want %v (must be bit-exact)", i, r64[i], v)
		}
	}
	// A cross-dtype read is refused, naming the block and both dtypes; so
	// are a missing block and another shape.
	for _, tc := range []struct {
		err  error
		want []string
	}{
		{ReadBlock(got, "w32", 2, 3, make([]float64, 6)), []string{`"w32"`, "float32", "float64"}},
		{ReadBlock(got, "w64", 1, 5, make([]float32, 5)), []string{`"w64"`, "float64", "float32"}},
		{ReadBlock(got, "w16", 1, 5, r64), []string{`"w16"`}},
		{ReadBlock(got, "w64", 5, 1, r64), []string{`"w64"`, "1x5", "5x1"}},
	} {
		if tc.err == nil {
			t.Fatalf("read accepted, want an error naming %v", tc.want)
		}
		for _, w := range tc.want {
			if !strings.Contains(tc.err.Error(), w) {
				t.Fatalf("error %q does not name %s", tc.err, w)
			}
		}
	}
}
