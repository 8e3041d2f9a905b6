package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecode: Decode never panics on arbitrary bytes, and a snapshot it
// accepts survives Encode -> Decode unchanged. The trailing CRC rejects
// nearly every mutated input before a length field is read, so each input
// is also decoded with its last four bytes replaced by the checksum of the
// rest — that is what lets the fuzzer reach the field parser.
func FuzzDecode(f *testing.F) {
	old := sampleSnapshot(7)
	v3 := &Snapshot{
		Fingerprint: 42, Epoch: 3, Batch: 11, BestEpoch: -1, BestVal: 0.75,
		RNG: []byte{9, 8, 7}, Aux: []byte("round=5"),
		Blocks: []Block{
			{Name: "w32", Dtype: Float32, Rows: 2, Cols: 2, Data32: []float32{1.5, -2.25, 3e-8, 4096.125}},
			{Name: "w64", Rows: 1, Cols: 3, Data: []float64{1, -1e-12, 0}},
		},
	}
	enc := v3.Encode()
	for _, seed := range [][]byte{
		enc,
		old.Encode(),
		encodeLegacy(old, versionV2),
		encodeLegacy(old, versionV1),
		enc[:len(enc)/2], // torn write
		enc[:len(magic)+4],
		[]byte(magic),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRoundTrip(t, data)
		if len(data) >= 4 {
			fixed := bytes.Clone(data)
			binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.ChecksumIEEE(fixed[:len(fixed)-4]))
			decodeRoundTrip(t, fixed)
		}
	})
}

func decodeRoundTrip(t *testing.T, data []byte) {
	s, err := Decode(data)
	if err != nil {
		return
	}
	enc := s.Encode()
	// Version 3 has one encoding per snapshot; older versions re-encode as 3.
	if binary.LittleEndian.Uint32(data[len(magic):]) == Version && !bytes.Equal(enc, data) {
		t.Fatalf("accepted version-%d bytes are not what Encode writes for them", Version)
	}
	s2, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-decoding an accepted snapshot: %v", err)
	}
	// Encode covers every field, bit for bit (NaN payloads included), so
	// equal encodings are equal snapshots.
	if !bytes.Equal(s2.Encode(), enc) {
		t.Fatalf("round trip changed the snapshot\n in: %+v\nout: %+v", s, s2)
	}
}
