package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalegnn/internal/fault"
	"scalegnn/internal/obs"
)

func sampleSnapshot(fp uint64) *Snapshot {
	return &Snapshot{
		Fingerprint:    fp,
		Epoch:          7,
		Batch:          -1,
		OptStep:        91,
		BestEpoch:      5,
		PatienceAnchor: 5,
		BestVal:        0.8125,
		RNG:            []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		RNGEpoch:       []byte{11, 12, 13, 14},
		Run:            []byte(`{"family":"sign"}`),
		Blocks: []Block{
			NewBlock("param.0", 2, 3, []float64{1, -2, 3.5, 0, 1e-9, -7}),
			NewBlock("adam.m.0", 2, 3, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}),
			NewBlock("empty", 0, 4, []float64{}),
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSnapshot(0xdeadbeef)
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != want.Fingerprint || got.Epoch != want.Epoch ||
		got.Batch != want.Batch || got.OptStep != want.OptStep ||
		got.BestEpoch != want.BestEpoch || got.PatienceAnchor != want.PatienceAnchor ||
		got.BestVal != want.BestVal {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if string(got.RNG) != string(want.RNG) || string(got.RNGEpoch) != string(want.RNGEpoch) {
		t.Fatal("rng state mismatch")
	}
	if string(got.Run) != string(want.Run) {
		t.Fatalf("run blob: got %q want %q", got.Run, want.Run)
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("got %d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for i, b := range got.Blocks {
		w := want.Blocks[i]
		if b.Name != w.Name || b.Dtype != w.Dtype || b.Rows != w.Rows || b.Cols != w.Cols {
			t.Fatalf("block %d shape: got %+v want %+v", i, b, w)
		}
		if !bytes.Equal(b.Bits, w.Bits) {
			t.Fatalf("block %d payload: got %x want %x", i, b.Bits, w.Bits)
		}
	}
}

// TestCorruptionMatrix is the satellite-mandated table: every corruption
// class must map to its typed error.
func TestCorruptionMatrix(t *testing.T) {
	good := sampleSnapshot(1).Encode()
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty file", func(b []byte) []byte { return nil }, ErrTruncated},
		{"truncated header", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }, ErrChecksum},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-1] }, ErrChecksum},
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, ErrChecksum},
		{"flipped checksum", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrChecksum},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"wrong version", func(b []byte) []byte { b[8] = 99; return b }, ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), good...))
			_, err := Decode(data)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestWriteFileDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileDurable(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// Overwrite must replace atomically, leaving no temp files behind.
	if err := WriteFileDurable(path, []byte("world")); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after two writes, want 1", len(ents))
	}
}

func TestWriteFileDurableFailpointLeavesNoFinalFile(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := fault.Set("ckpt.before-rename", "error"); err != nil {
		t.Fatal(err)
	}
	err := WriteFileDurable(path, []byte("doomed"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("final path exists after aborted write (stat err %v)", err)
	}
}

func TestManagerSavePruneLatest(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	const fp = 42
	for i := 0; i < 5; i++ {
		s := sampleSnapshot(fp)
		s.Epoch = i
		if _, err := m.Save(s); err != nil {
			t.Fatalf("save epoch %d: %v", i, err)
		}
	}
	names, err := m.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("retained %d snapshots, want 2: %v", len(names), names)
	}
	s, path, err := m.Latest(fp)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != 4 {
		t.Fatalf("Latest returned epoch %d, want 4", s.Epoch)
	}
	if !strings.Contains(path, "ckpt-0000000004") {
		t.Fatalf("unexpected latest path %s", path)
	}
}

func TestLatestEmptyDirIsFreshStart(t *testing.T) {
	m, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, path, err := m.Latest(1)
	if s != nil || path != "" || err != nil {
		t.Fatalf("empty dir: got (%v, %q, %v), want (nil, \"\", nil)", s, path, err)
	}
}

// TestLatestFallsBackPastCorruption: the newest file is corrupted in
// every way the matrix covers; Latest must land on the older good one.
func TestLatestFallsBackPastCorruption(t *testing.T) {
	const fp = 7
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 1; return b }},
		{"wrong version", func(b []byte) []byte { b[8] = 99; return b }},
		{"garbage", func(b []byte) []byte { return []byte("not a checkpoint") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewManager(t.TempDir(), 3)
			if err != nil {
				t.Fatal(err)
			}
			good := sampleSnapshot(fp)
			good.Epoch = 1
			if _, err := m.Save(good); err != nil {
				t.Fatal(err)
			}
			bad := sampleSnapshot(fp)
			bad.Epoch = 2
			badPath, err := m.Save(bad)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(badPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(badPath, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			s, _, err := m.Latest(fp)
			if err != nil {
				t.Fatalf("fallback failed: %v", err)
			}
			if s.Epoch != 1 {
				t.Fatalf("resumed epoch %d, want fallback to 1", s.Epoch)
			}
		})
	}
}

// A snapshot from a different run must not be resumed, and must not be
// silently ignored either; Newest, which names no run, returns it.
func TestLatestFingerprintMismatch(t *testing.T) {
	m, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(sampleSnapshot(111)); err != nil {
		t.Fatal(err)
	}
	_, _, err = m.Latest(222)
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("got %v, want ErrFingerprint", err)
	}
	if s, _, err := m.Newest(); err != nil || s == nil || s.Fingerprint != 111 {
		t.Fatalf("Newest = (%v, %v), want the fingerprint-111 snapshot", s, err)
	}
}

// Torn temp files from a crashed write must be invisible to resume.
func TestLatestIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := sampleSnapshot(9)
	if _, err := m.Save(good); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "ckpt-0000000099-999999.bin.12345.tmp")
	if err := os.WriteFile(torn, []byte("SGNNCKPT partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := m.Latest(9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != good.Epoch {
		t.Fatalf("resumed epoch %d, want %d", s.Epoch, good.Epoch)
	}
}

func TestFingerprintSeparatesFields(t *testing.T) {
	a := NewFingerprint().String("ab").String("c").Sum()
	b := NewFingerprint().String("a").String("bc").Sum()
	if a == b {
		t.Fatal("fingerprint does not separate adjacent strings")
	}
	if NewFingerprint().U64(1).Sum() == NewFingerprint().U64(2).Sum() {
		t.Fatal("fingerprint ignores u64 input")
	}
}

// TestEnableMetricsCounts: a save moves the bound counters and the
// latency histogram, and after EnableMetrics(nil) a save moves nothing.
func TestEnableMetricsCounts(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(func() { EnableMetrics(nil) })
	m, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(sampleSnapshot(3)); err != nil {
		t.Fatal(err)
	}
	saved, secs := reg.Counter("ckpt.snapshots_saved"), reg.Histogram("ckpt.save_seconds", nil)
	if n := saved.Value(); n != 1 {
		t.Fatalf("snapshots_saved = %d, want 1", n)
	}
	if n := reg.Counter("ckpt.bytes_written").Value(); n <= 0 {
		t.Fatalf("bytes_written = %d, want > 0", n)
	}
	if n := secs.Count(); n != 1 {
		t.Fatalf("save_seconds count = %d, want 1", n)
	}
	EnableMetrics(nil)
	if _, err := m.Save(sampleSnapshot(4)); err != nil {
		t.Fatal(err)
	}
	if saved.Value() != 1 || secs.Count() != 1 {
		t.Errorf("unbound: snapshots_saved %d, save_seconds count %d, want both still 1", saved.Value(), secs.Count())
	}
}
