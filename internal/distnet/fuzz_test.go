package distnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReadFrame: readFrame and the payload decoders behind it never panic
// on arbitrary bytes; a torn, oversized or bad-checksum frame is an error;
// and whatever is accepted is exactly what the encoders write.
func FuzzReadFrame(f *testing.F) {
	rows := encodeRows(1, 42, 7, "a3", &RowBlock{IDs: []int32{3, 9}, Cols: 2, F64: []float64{1.5, -2.25, 0, 3e-300}})
	oversized := bytes.Clone(rows)
	binary.LittleEndian.PutUint32(oversized[8:], maxPayload+1)
	badCRC := bytes.Clone(rows)
	badCRC[len(badCRC)-1] ^= 1
	// A rows header whose rowCount × row size wraps around to the four body
	// bytes present: 2147549185 rows of 1073709056 float64 columns.
	wrap := make([]byte, 27+4)
	binary.LittleEndian.PutUint32(wrap[17:], 1073709056)
	binary.LittleEndian.PutUint32(wrap[21:], 2147549185)
	for _, seed := range [][]byte{
		rows,
		encodeRows(0, 1, 0, "s", &RowBlock{IDs: []int32{0}, Cols: 3, F32: []float32{1.5, -0.25, 7}}),
		encodeHello(2, 4, 0xfeedface, 1),  // fresh start
		encodeHello(1, 2, 0xfeedface, 18), // resumed past round 17
		encodeHello(1, 2, 0xfeedface, 0),  // no such cursor: rejected
		encodeFrame(typeHeartbeat, 0, nil),
		encodeFrame(typeRows, 0, wrap),
		rows[:len(rows)/2], // torn body
		rows[:6],           // torn header
		oversized,
		badCRC,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The payload decoders see whatever follows a header's worth of
		// bytes (for the seeds: the real payload), with no checksum in the
		// way of the fuzzer.
		if len(data) >= headerLen+4 {
			fuzzPayload(t, data[headerLen:len(data)-4])
		}
		claimed := uint32(0)
		if len(data) >= headerLen {
			claimed = binary.LittleEndian.Uint32(data[8:])
		}
		if claimed > 1<<20 && claimed <= maxPayload {
			// readFrame allocates what a length within maxPayload claims,
			// by design; replaying that a million times is not a test.
			t.Skip()
		}
		fr, err := pipeRead(t, data)
		if err != nil {
			if claimed > maxPayload && bytes.HasPrefix(data, append([]byte(frameMagic), protoVersion)) && !errors.Is(err, errCorrupt) {
				t.Fatalf("oversized frame: error %v is not errCorrupt", err)
			}
			return
		}
		want := encodeFrame(fr.typ, fr.from, fr.payload)
		if len(data) < len(want) || !bytes.Equal(data[:len(want)], want) {
			t.Fatalf("accepted frame type=%d from=%d payload=%d bytes is not a prefix of the input", fr.typ, fr.from, len(fr.payload))
		}
	})
}

func fuzzPayload(t *testing.T, p []byte) {
	if n, fp, want, err := decodeHello(frame{typ: typeHello, payload: p}); err == nil {
		if got := encodeHello(0, n, fp, want); want == 0 || !bytes.Equal(got[headerLen:len(got)-4], p) {
			t.Fatalf("hello payload %x (want=%d) re-encodes as %x", p, want, got[headerLen:len(got)-4])
		}
	}
	if m, err := decodeRows(frame{typ: typeRows, payload: p}); err == nil {
		if got := encodeRows(0, m.seq, m.epoch, m.site, m.block); !bytes.Equal(got[headerLen:len(got)-4], p) {
			t.Fatalf("rows payload (%d bytes) does not re-encode to itself", len(p))
		}
	}
}
