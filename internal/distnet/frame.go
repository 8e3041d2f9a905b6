package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync/atomic"
	"time"

	"scalegnn/internal/fault"
)

// Process-wide wire-volume counters, mirrored into the obs registry when
// EnableMetrics is on. The benchmark harness reads them directly (as
// deltas) to report exchange volume per configuration.
var wireSent, wireRecv atomic.Int64

// WireBytes returns the total frame bytes this process has sent and
// received across all clusters since start.
func WireBytes() (sent, recv int64) { return wireSent.Load(), wireRecv.Load() }

// Wire format. Every message is one frame:
//
//	offset  size  field
//	0       4     magic "SGNX"
//	4       1     protocol version (2)
//	5       1     frame type
//	6       2     sender shard (uint16)
//	8       4     payload length (uint32)
//	12      n     payload
//	12+n    4     CRC32 (IEEE) over every preceding byte
//
// The trailing checksum makes a torn or bit-flipped frame indistinguishable
// from garbage at read time: the receiver severs the connection and lets the
// replay protocol re-deliver, rather than trusting a half-written round.
const (
	frameMagic   = "SGNX"
	protoVersion = 2
	headerLen    = 12
	// maxPayload bounds a frame's claimed payload so a corrupt length field
	// cannot drive an allocation or a multi-gigabyte read.
	maxPayload = 1 << 30
)

// Frame types.
const (
	typeHello     = 1 // handshake: cluster shape, run fingerprint, cursor
	typeRows      = 2 // one shard's rows for one exchange round
	typeHeartbeat = 3 // liveness; carries no payload
)

// Typed frame errors. errCorrupt covers torn frames, checksum mismatches,
// and malformed payloads — anything where the bytes cannot be trusted.
var (
	errCorrupt = errors.New("distnet: corrupt frame")
)

// frame is one decoded wire message.
type frame struct {
	typ     byte
	from    int
	payload []byte
}

// encodeFrame serializes a frame, including the trailing checksum.
func encodeFrame(typ byte, from int, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+4)
	buf = append(buf, frameMagic...)
	buf = append(buf, protoVersion, typ)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// writeFrame writes one encoded frame under a fresh write deadline.
//
// Failpoint "distnet.send" (internal/fault) is evaluated per frame: "drop"
// skips the write (a silently lost message), "partial" writes half the
// frame and severs the connection (a torn frame on the receiver's wire),
// "error" fails the write outright.
func writeFrame(conn net.Conn, timeout time.Duration, buf []byte) error {
	if err := fault.Inject("distnet.send"); err != nil {
		switch {
		case errors.Is(err, fault.ErrDrop):
			return nil
		case errors.Is(err, fault.ErrPartial):
			if derr := conn.SetWriteDeadline(time.Now().Add(timeout)); derr != nil {
				return derr
			}
			_, _ = conn.Write(buf[:len(buf)/2])
			_ = conn.Close()
			return err
		default:
			return err
		}
	}
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	n, err := conn.Write(buf)
	wireSent.Add(int64(n))
	bytesSentC.Add(int64(n))
	return err
}

// readFrame reads and validates one frame under a fresh read deadline; the
// deadline doubles as the peer-failure detector (heartbeats arrive well
// inside it on a live connection). Corruption — bad magic, bad version, an
// absurd length, a checksum mismatch, or a mid-frame EOF — returns an error
// wrapping errCorrupt.
//
// Failpoint "distnet.recv" is evaluated per frame before the read.
func readFrame(conn net.Conn, timeout time.Duration) (frame, error) {
	if err := fault.Inject("distnet.recv"); err != nil {
		return frame{}, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return frame{}, err
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return frame{}, err
	}
	if string(hdr[:4]) != frameMagic {
		return frame{}, fmt.Errorf("%w: bad magic %q", errCorrupt, hdr[:4])
	}
	if hdr[4] != protoVersion {
		return frame{}, fmt.Errorf("%w: protocol version %d, want %d", errCorrupt, hdr[4], protoVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > maxPayload {
		return frame{}, fmt.Errorf("%w: payload claims %d bytes", errCorrupt, n)
	}
	rest := make([]byte, int(n)+4)
	if _, err := io.ReadFull(conn, rest); err != nil {
		// A half-delivered frame (sender died or tore the write) surfaces
		// as an unexpected EOF mid-body: corruption, not a clean close.
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return frame{}, fmt.Errorf("%w: truncated body: %v", errCorrupt, err)
		}
		return frame{}, err
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, rest[:n])
	if got := binary.LittleEndian.Uint32(rest[n:]); got != sum {
		return frame{}, fmt.Errorf("%w: checksum %08x, computed %08x", errCorrupt, got, sum)
	}
	wireRecv.Add(int64(headerLen) + int64(n) + 4)
	bytesRecvC.Add(int64(headerLen) + int64(n) + 4)
	return frame{
		typ:     hdr[5],
		from:    int(binary.LittleEndian.Uint16(hdr[6:])),
		payload: rest[:n:n],
	}, nil
}

// Hello payload: cluster size (uint16) + run fingerprint (uint64) + want
// (uint64), the first round seq the sender still needs from the receiver
// (its consumed+1, so never 0): the receiver streams its send log from
// there. A mismatch of size or fingerprint on either side means the
// processes disagree about the run and must not exchange rows.
func encodeHello(from, n int, fingerprint, want uint64) []byte {
	p := make([]byte, 0, 18)
	p = binary.LittleEndian.AppendUint16(p, uint16(n))
	p = binary.LittleEndian.AppendUint64(p, fingerprint)
	p = binary.LittleEndian.AppendUint64(p, want)
	return encodeFrame(typeHello, from, p)
}

func decodeHello(f frame) (n int, fingerprint, want uint64, err error) {
	if f.typ != typeHello || len(f.payload) != 18 {
		return 0, 0, 0, fmt.Errorf("%w: hello payload %d bytes", errCorrupt, len(f.payload))
	}
	n = int(binary.LittleEndian.Uint16(f.payload))
	fingerprint = binary.LittleEndian.Uint64(f.payload[2:])
	if want = binary.LittleEndian.Uint64(f.payload[10:]); want == 0 {
		return 0, 0, 0, fmt.Errorf("%w: hello wants round 0", errCorrupt)
	}
	return n, fingerprint, want, nil
}

// Rows payload:
//
//	seq (uint64), epoch (int64), dtype (uint8: 0 float64, 1 float32),
//	cols (uint32), rowCount (uint32), site (uint16 length + bytes),
//	then rowCount × (rowID uint32 + cols elements).
//
// Elements travel as raw IEEE-754 bit patterns (8 bytes for float64, 4 for
// float32), so a row received over the wire is bitwise the row the sender
// computed — the property the whole sync-mode parity story rests on.
type rowsMsg struct {
	seq   uint64
	epoch int64
	site  string
	block *RowBlock
}

func encodeRows(from int, seq uint64, epoch int64, site string, b *RowBlock) []byte {
	elem := 8
	if b.F32 != nil {
		elem = 4
	}
	p := make([]byte, 0, 8+8+1+4+4+2+len(site)+len(b.IDs)*(4+b.Cols*elem))
	p = binary.LittleEndian.AppendUint64(p, seq)
	p = binary.LittleEndian.AppendUint64(p, uint64(epoch))
	if b.F32 != nil {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(b.Cols))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(b.IDs)))
	p = binary.LittleEndian.AppendUint16(p, uint16(len(site)))
	p = append(p, site...)
	for i, id := range b.IDs {
		p = binary.LittleEndian.AppendUint32(p, uint32(id))
		if b.F32 != nil {
			for _, v := range b.F32[i*b.Cols : (i+1)*b.Cols] {
				p = binary.LittleEndian.AppendUint32(p, math.Float32bits(v))
			}
		} else {
			for _, v := range b.F64[i*b.Cols : (i+1)*b.Cols] {
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
			}
		}
	}
	return encodeFrame(typeRows, from, p)
}

func decodeRows(f frame) (*rowsMsg, error) {
	p := f.payload
	if len(p) < 8+8+1+4+4+2 {
		return nil, fmt.Errorf("%w: rows payload %d bytes", errCorrupt, len(p))
	}
	m := &rowsMsg{
		seq:   binary.LittleEndian.Uint64(p),
		epoch: int64(binary.LittleEndian.Uint64(p[8:])),
	}
	dtype := p[16]
	cols := int(binary.LittleEndian.Uint32(p[17:]))
	rows := int(binary.LittleEndian.Uint32(p[21:]))
	siteLen := int(binary.LittleEndian.Uint16(p[25:]))
	p = p[27:]
	if dtype > 1 || cols < 0 || rows < 0 || len(p) < siteLen {
		return nil, fmt.Errorf("%w: malformed rows header", errCorrupt)
	}
	m.site = string(p[:siteLen])
	p = p[siteLen:]
	elem := 8
	if dtype == 1 {
		elem = 4
	}
	// rows is bounded by the body first: the product alone can wrap to
	// len(p) for a row count the body cannot hold.
	if rows > len(p)/4 || len(p) != rows*(4+cols*elem) {
		return nil, fmt.Errorf("%w: rows body %d bytes for %d rows of %d columns", errCorrupt, len(p), rows, cols)
	}
	b := &RowBlock{Cols: cols, IDs: make([]int32, rows)}
	if dtype == 1 {
		b.F32 = make([]float32, rows*cols)
	} else {
		b.F64 = make([]float64, rows*cols)
	}
	for i := 0; i < rows; i++ {
		b.IDs[i] = int32(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if dtype == 1 {
			for j := 0; j < cols; j++ {
				b.F32[i*cols+j] = math.Float32frombits(binary.LittleEndian.Uint32(p))
				p = p[4:]
			}
		} else {
			for j := 0; j < cols; j++ {
				b.F64[i*cols+j] = math.Float64frombits(binary.LittleEndian.Uint64(p))
				p = p[8:]
			}
		}
	}
	m.block = b
	return m, nil
}
