package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// withVersion returns enc with its format version replaced and the
// trailing checksum recomputed, so only the version makes it unreadable.
func withVersion(enc []byte, version uint32) []byte {
	out := bytes.Clone(enc)
	binary.LittleEndian.PutUint32(out[len(magic):], version)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// FuzzDecode: Decode never panics on arbitrary bytes, a snapshot it
// accepts survives Encode -> Decode unchanged, and a well-formed header of
// any other format version fails with ErrVersion. The trailing CRC rejects
// nearly every mutated input before a length field is read, so each input
// is also decoded with its last four bytes replaced by the checksum of the
// rest — that is what lets the fuzzer reach the field parser.
func FuzzDecode(f *testing.F) {
	bare := sampleSnapshot(7)
	bare.Run = nil
	full := &Snapshot{
		Fingerprint: 42, Epoch: 3, Batch: 11, BestEpoch: -1, BestVal: 0.75,
		RNG: []byte{9, 8, 7}, Aux: []byte("round=5"), Run: []byte(`{"family":"sgc","hops":2}`),
		Blocks: []Block{
			{Name: "w32", Dtype: Float32, Rows: 2, Cols: 2, Data32: []float32{1.5, -2.25, 3e-8, 4096.125}},
			{Name: "w64", Rows: 1, Cols: 3, Data: []float64{1, -1e-12, 0}},
		},
	}
	enc := full.Encode()
	for _, seed := range [][]byte{
		enc,
		bare.Encode(),
		withVersion(enc, Version-1), // the previous format: refused, not misread
		enc[:len(enc)/2],            // torn write
		enc[:len(magic)+4],
		[]byte(magic),
		{},
		withVersion(bare.Encode(), Version+1),
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
	if len(data) >= len(magic)+4 && string(data[:len(magic)]) == magic {
		if v := binary.LittleEndian.Uint32(data[len(magic):]); v != Version && !errors.Is(err, ErrVersion) {
			t.Fatalf("version-%d bytes: err = %v, want ErrVersion", v, err)
		}
	}
	if err != nil {
		return
	}
	enc := s.Encode()
	// An accepted snapshot has exactly one encoding.
	if !bytes.Equal(enc, data) {
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
