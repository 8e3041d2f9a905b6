package ckpt

import (
	"math"
	"testing"
)

// TestFloat32BlockRoundTrip proves the format carries mixed-dtype
// blocks losslessly: float32 payloads keep their exact bits, float64 blocks
// are unaffected, and the widening/narrowing accessors convert.
func TestFloat32BlockRoundTrip(t *testing.T) {
	want := &Snapshot{
		Fingerprint: 42, Epoch: 3, Batch: -1, BestEpoch: -1, PatienceAnchor: 2,
		BestVal: 0.75,
		RNG:     []byte{9, 8, 7},
		Blocks: []Block{
			{Name: "w32", Dtype: Float32, Rows: 2, Cols: 2,
				Data32: []float32{1.5, -2.25, 3e-8, 4096.125}},
			{Name: "w64", Rows: 1, Cols: 3, Data: []float64{1, math.Pi, -1e-12}},
		},
	}
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(got.Blocks))
	}
	b32 := got.Blocks[0]
	if b32.Dtype != Float32 || b32.Name != "w32" || b32.Rows != 2 || b32.Cols != 2 {
		t.Fatalf("float32 block header corrupted: %+v", b32)
	}
	for i, v := range want.Blocks[0].Data32 {
		if b32.Data32[i] != v {
			t.Fatalf("float32 payload[%d] = %v, want %v (must be bit-exact)", i, b32.Data32[i], v)
		}
	}
	if b32.Len() != 4 {
		t.Fatalf("float32 block Len() = %d, want 4", b32.Len())
	}
	// Accessors: Float32 on a Float32 block returns the payload, Float64
	// widens it.
	wide := b32.Float64()
	for i, v := range b32.Data32 {
		if wide[i] != float64(v) {
			t.Fatalf("Float64()[%d] = %v, want %v", i, wide[i], float64(v))
		}
	}
	b64 := got.Blocks[1]
	if b64.Dtype != Float64 {
		t.Fatalf("float64 block decoded with dtype %d", b64.Dtype)
	}
	for i, v := range want.Blocks[1].Data {
		if b64.Data[i] != v {
			t.Fatalf("float64 payload[%d] = %v, want %v", i, b64.Data[i], v)
		}
	}
	narrow := b64.Float32()
	for i, v := range b64.Data {
		if narrow[i] != float32(v) {
			t.Fatalf("Float32()[%d] = %v, want %v", i, narrow[i], float32(v))
		}
	}
}
