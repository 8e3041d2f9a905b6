// Package ckpt implements durable training checkpoints: a versioned,
// CRC32-checksummed binary snapshot format holding model parameters,
// optimizer moments, the RNG state, and the training cursor, plus a
// crash-safe file writer (temp file -> fsync -> rename -> dir fsync) and
// a keep-last-N Manager that falls back past torn or corrupt files on
// resume.
//
// Snapshot layout (little-endian, version 3):
//
//	offset  size  field
//	0       8     magic "SGNNCKPT"
//	8       4     format version (uint32)
//	12      8     run fingerprint (uint64)
//	20      8*5   epoch, batch, optStep, bestEpoch, patienceAnchor (int64)
//	60      8     bestVal (float64 bits)
//	...           RNG state        (uint32 length + bytes)
//	...           epoch RNG state  (uint32 length + bytes)
//	...           auxiliary state  (uint32 length + bytes)
//	...           block count (uint32), then per block:
//	                name (uint16 length + bytes), dtype (uint8),
//	                rows (uint32), cols (uint32), rows*cols values
//	                (8 bytes each for Float64 blocks, 4 for Float32)
//	end-4   4     CRC32 (IEEE) over every preceding byte
//
// Version 2 lacks the auxiliary-state blob (it decodes as empty); version 1
// additionally has no per-block dtype byte (every payload float64). Decode
// reads all three; Encode always writes version 3. The auxiliary blob is
// opaque to this package — the training engine uses it to carry subsystem
// state that must travel with the cursor (e.g. the distributed runtime's
// exchange-round counter).
//
// The trailing checksum makes truncation and bit flips indistinguishable
// from "not a checkpoint" at read time; the fingerprint rejects resuming
// a run against a different graph, model, or hyperparameter set.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Format constants.
const (
	magic   = "SGNNCKPT"
	Version = 3
	// versionV2 is the pre-aux format: no auxiliary-state blob. Still
	// readable (Aux decodes as nil).
	versionV2 = 2
	// versionV1 is the pre-dtype format: no per-block dtype byte, all
	// payloads float64. Still readable.
	versionV1 = 1
)

// Dtype tags a block's element type. The zero value is Float64, so v1
// snapshots (and zero-valued Blocks) decode as the reference dtype.
type Dtype uint8

// Block element types.
const (
	Float64 Dtype = 0
	Float32 Dtype = 1
)

func (d Dtype) String() string {
	switch d {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("Dtype(%d)", uint8(d))
	}
}

// elemSize returns the on-disk bytes per element, or 0 for an unknown tag.
func (d Dtype) elemSize() int {
	switch d {
	case Float64:
		return 8
	case Float32:
		return 4
	default:
		return 0
	}
}

// Typed decode errors. Manager.Latest skips snapshots failing with
// ErrTruncated, ErrChecksum, ErrBadMagic, or ErrVersion (falling back to
// an older file); ErrFingerprint is surfaced to the caller because every
// candidate came from a different run.
var (
	ErrBadMagic    = errors.New("ckpt: bad magic (not a checkpoint file)")
	ErrVersion     = errors.New("ckpt: unsupported format version")
	ErrTruncated   = errors.New("ckpt: truncated snapshot")
	ErrChecksum    = errors.New("ckpt: checksum mismatch (corrupted snapshot)")
	ErrFingerprint = errors.New("ckpt: run fingerprint mismatch")
)

// Block is one named tensor in a snapshot: a model parameter, its
// gradient-moment pair, or an auxiliary weight copy (e.g. best-so-far).
// Exactly one of Data/Data32 is populated, selected by Dtype; the zero
// Dtype is Float64 so existing construction sites stay valid.
type Block struct {
	Name       string
	Dtype      Dtype
	Rows, Cols int
	Data       []float64 // payload when Dtype == Float64
	Data32     []float32 // payload when Dtype == Float32
}

// Len returns the number of elements in the block's payload.
func (b Block) Len() int {
	if b.Dtype == Float32 {
		return len(b.Data32)
	}
	return len(b.Data)
}

// Float64 returns the payload as float64, widening a Float32 block into a
// fresh slice; Float64 blocks return their payload without copying.
func (b Block) Float64() []float64 {
	if b.Dtype != Float32 {
		return b.Data
	}
	out := make([]float64, len(b.Data32))
	for i, v := range b.Data32 {
		out[i] = float64(v)
	}
	return out
}

// Float32 returns the payload as float32, narrowing a Float64 block into a
// fresh slice; Float32 blocks return their payload without copying.
func (b Block) Float32() []float32 {
	if b.Dtype == Float32 {
		return b.Data32
	}
	out := make([]float32, len(b.Data))
	for i, v := range b.Data {
		out[i] = float32(v)
	}
	return out
}

// Snapshot is the full resumable training state at a (epoch, batch)
// boundary. Batch < 0 means "epoch boundary" (no mid-epoch cursor).
type Snapshot struct {
	Fingerprint uint64 // run identity: model + graph + config hash

	Epoch          int // completed epochs (resume starts at this epoch)
	Batch          int // next batch index within Epoch, or -1 at a boundary
	OptStep        int // optimizer step counter (Adam bias correction)
	BestEpoch      int // epoch of best validation accuracy, -1 if none
	PatienceAnchor int // early-stopping anchor (epoch of last improvement)
	BestVal        float64

	RNG      []byte // serialized PCG state at the cursor
	RNGEpoch []byte // serialized PCG state just before this epoch's shuffle
	Aux      []byte // opaque subsystem state riding with the cursor (may be nil)

	Blocks []Block
}

// Encode serializes the snapshot to the version-3 binary format,
// including the trailing checksum.
func (s *Snapshot) Encode() []byte {
	n := len(magic) + 4 + 8 + 5*8 + 8 +
		4 + len(s.RNG) + 4 + len(s.RNGEpoch) + 4 + len(s.Aux) + 4
	for _, b := range s.Blocks {
		n += 2 + len(b.Name) + 1 + 4 + 4 + b.Dtype.elemSize()*b.Len()
	}
	n += 4 // checksum
	buf := make([]byte, 0, n)

	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, s.Fingerprint)
	for _, v := range [...]int{s.Epoch, s.Batch, s.OptStep, s.BestEpoch, s.PatienceAnchor} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.BestVal))
	buf = appendBytes(buf, s.RNG)
	buf = appendBytes(buf, s.RNGEpoch)
	buf = appendBytes(buf, s.Aux)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Blocks)))
	for _, b := range s.Blocks {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.Name)))
		buf = append(buf, b.Name...)
		buf = append(buf, byte(b.Dtype))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Cols))
		switch b.Dtype {
		case Float32:
			for _, v := range b.Data32 {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		default:
			for _, v := range b.Data {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// Decode parses a version-1, -2 or -3 snapshot, verifying magic,
// version, and checksum. It does not check the fingerprint; callers compare
// Snapshot.Fingerprint themselves (Manager.Latest does).
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	if version != Version && version != versionV2 && version != versionV1 {
		return nil, fmt.Errorf("%w: got %d, want <= %d", ErrVersion, version, Version)
	}
	// Verify the trailing checksum before trusting any length field.
	if len(data) < len(magic)+4+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, ErrChecksum
	}

	r := reader{buf: body, off: len(magic) + 4}
	s := &Snapshot{}
	s.Fingerprint = r.u64()
	s.Epoch = int(int64(r.u64()))
	s.Batch = int(int64(r.u64()))
	s.OptStep = int(int64(r.u64()))
	s.BestEpoch = int(int64(r.u64()))
	s.PatienceAnchor = int(int64(r.u64()))
	s.BestVal = math.Float64frombits(r.u64())
	s.RNG = r.bytes()
	s.RNGEpoch = r.bytes()
	if version >= Version {
		s.Aux = r.bytes()
	}
	nblocks := int(r.u32())
	if r.err == nil && nblocks >= 0 && nblocks <= (len(body)-r.off)/10 {
		s.Blocks = make([]Block, 0, nblocks)
	}
	for i := 0; i < nblocks && r.err == nil; i++ {
		var b Block
		b.Name = string(r.short())
		if version >= versionV2 {
			b.Dtype = Dtype(r.u8())
		}
		b.Rows = int(r.u32())
		b.Cols = int(r.u32())
		if r.err != nil {
			break
		}
		es := b.Dtype.elemSize()
		if es == 0 {
			r.err = fmt.Errorf("%w: block %q has unknown dtype %d", ErrTruncated, b.Name, uint8(b.Dtype))
			break
		}
		if b.Rows < 0 || b.Cols < 0 || (b.Rows > 0 && b.Cols > (len(body)-r.off)/es/b.Rows) {
			r.err = fmt.Errorf("%w: block %q claims %dx%d", ErrTruncated, b.Name, b.Rows, b.Cols)
			break
		}
		if b.Dtype == Float32 {
			b.Data32 = make([]float32, b.Rows*b.Cols)
			for j := range b.Data32 {
				b.Data32[j] = math.Float32frombits(r.u32())
			}
		} else {
			b.Data = make([]float64, b.Rows*b.Cols)
			for j := range b.Data {
				b.Data[j] = math.Float64frombits(r.u64())
			}
		}
		s.Blocks = append(s.Blocks, b)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(body)-r.off)
	}
	return s, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// reader is a bounds-checked cursor over the snapshot body; the first
// overrun latches err and every later read returns zero.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, n, r.off, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (r *reader) short() []byte {
	b := r.take(2)
	if b == nil {
		return nil
	}
	return r.take(int(binary.LittleEndian.Uint16(b)))
}
