package distnet

import (
	"bytes"
	"errors"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"scalegnn/internal/obs"
	"scalegnn/internal/tensor"
)

// pipeRead feeds raw bytes through a real net.Pipe connection and returns
// readFrame's result — the full deadline-and-validation path, not just the
// decoder.
func pipeRead(t *testing.T, raw []byte) (frame, error) {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errc := make(chan error, 1)
	//lint:ignore naked-go test writer feeding one frame into a pipe, joined via errc
	go func() {
		_, err := client.Write(raw)
		_ = client.Close() // EOF after the payload, like a torn sender
		errc <- err
	}()
	f, err := readFrame(server, 500*time.Millisecond)
	_ = server.Close() // unblock the writer if the frame was rejected early
	<-errc
	return f, err
}

func TestFrameRoundTrip(t *testing.T) {
	f, err := pipeRead(t, f64RowsFrame())
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != typeRows || f.from != 1 {
		t.Fatalf("frame type=%d from=%d", f.typ, f.from)
	}
	m, err := decodeRows(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.seq != 42 || m.epoch != 7 || m.site != "a3" {
		t.Fatalf("seq=%d epoch=%d site=%q", m.seq, m.epoch, m.site)
	}
	scatterBack(t, m, []int32{3, 9}, f64Rows)
}

func TestFrameRoundTripFloat32(t *testing.T) {
	f, err := pipeRead(t, f32RowsFrame())
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeRows(f)
	if err != nil {
		t.Fatal(err)
	}
	scatterBack(t, m, []int32{0}, f32Rows)
}

// scatterBack scatters m into a NaN-filled matrix and requires rows ids to
// hold exactly the bits of vals, and every other row to be untouched.
func scatterBack[T tensor.Elem](t *testing.T, m *rowsMsg, ids []int32, vals []T) {
	t.Helper()
	cols := len(vals) / len(ids)
	dst := tensor.NewOf[T](int(slices.Max(ids))+2, cols)
	dst.Fill(T(math.NaN()))
	if err := scatterRows(dst, m, ids); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < dst.Rows; r++ {
		i := slices.Index(ids, int32(r))
		for j, v := range dst.Row(r) {
			switch {
			case i < 0 && v == v:
				t.Fatalf("row %d was not sent, but holds %v", r, v)
			case i >= 0 && !sameBits(v, vals[i*cols+j]):
				t.Fatalf("row %d value %d = %v, want %v (not bitwise)", r, j, v, vals[i*cols+j])
			}
		}
	}
}

func sameBits[T tensor.Elem](a, b T) bool {
	return bytes.Equal(tensor.AppendBits(nil, []T{a}), tensor.AppendBits(nil, []T{b}))
}

// TestFrameCorruptionRejected: every class of wire damage — flipped payload
// bits, a flipped checksum, bad magic, a truncated (torn) frame, an absurd
// length — must be rejected as corruption, never decoded.
func TestFrameCorruptionRejected(t *testing.T) {
	good := encodeRows(1, 3, 0, "a0", 1, []int32{5}, func(int) []float64 { return []float64{42} })
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"payload bit flip", func(b []byte) []byte { b[headerLen+2] ^= 0x40; return b }},
		{"checksum flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"torn frame", func(b []byte) []byte { return b[:len(b)/2] }},
		{"torn header", func(b []byte) []byte { return b[:6] }},
		{"length overflow", func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
			return b
		}},
	}
	for _, tc := range cases {
		raw := tc.mut(append([]byte(nil), good...))
		if _, err := pipeRead(t, raw); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	// The checksum classes specifically must identify as corruption (the
	// read loop counts them); a clean short read surfaces as EOF instead.
	for _, name := range []string{"payload bit flip", "checksum flip", "bad magic"} {
		for _, tc := range cases {
			if tc.name != name {
				continue
			}
			_, err := pipeRead(t, tc.mut(append([]byte(nil), good...)))
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("%s: error %v is not errCorrupt", name, err)
			}
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	f, err := pipeRead(t, encodeHello(2, 4, 0xdeadbeefcafe, 18))
	if err != nil {
		t.Fatal(err)
	}
	n, fp, want, err := decodeHello(f)
	if err != nil || f.from != 2 || n != 4 || fp != 0xdeadbeefcafe || want != 18 {
		t.Fatalf("hello: from=%d n=%d fp=%x want=%d err=%v", f.from, n, fp, want, err)
	}
	// want is consumed+1: a hello asking for round 0 has no link to build.
	f, err = pipeRead(t, encodeHello(2, 4, 0xdeadbeefcafe, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeHello(f); !errors.Is(err, errCorrupt) {
		t.Fatalf("hello wanting round 0: error %v is not errCorrupt", err)
	}
}

func TestAuxCursorRoundTrip(t *testing.T) {
	c := &Cluster{cfg: Config{N: 2}}
	c.seq, c.epoch, c.siteIdx = 77, 12, 3
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	d := &Cluster{cfg: Config{N: 2}}
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if d.seq != 77 || d.epoch != 12 || d.siteIdx != 3 {
		t.Fatalf("cursor = (%d,%d,%d)", d.seq, d.epoch, d.siteIdx)
	}
	if err := d.UnmarshalBinary(blob[:10]); err == nil {
		t.Fatal("short aux blob accepted")
	}
}

// TestEnableMetricsNilUnbinds: after EnableMetrics(nil) reading a frame no
// longer moves the byte counter it moved while bound.
func TestEnableMetricsNilUnbinds(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(func() { EnableMetrics(nil) })
	recv := reg.Counter("distnet.bytes_recv")
	if _, err := pipeRead(t, f64RowsFrame()); err != nil {
		t.Fatal(err)
	}
	bound := recv.Value()
	if bound < 1 {
		t.Fatalf("bound: distnet.bytes_recv = %d, want >= 1", bound)
	}
	EnableMetrics(nil)
	if _, err := pipeRead(t, f64RowsFrame()); err != nil {
		t.Fatal(err)
	}
	if got := recv.Value(); got != bound {
		t.Errorf("unbound: distnet.bytes_recv moved %d -> %d", bound, got)
	}
}
