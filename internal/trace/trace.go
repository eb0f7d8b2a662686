// Package trace implements the on-disk .csitrace format: the offline
// equivalent of the Intel 5300 CSI Tool's log files. A trace is a stream of
// framed CSI packets with a versioned header and per-record CRC32, written
// and read with only encoding/binary.
//
// Layout (all little-endian):
//
//	header:  magic "CSIT" | uint16 version | uint8 numAnt | uint8 reserved |
//	         float64 carrier
//	record:  uint32 seq | int64 unixNano | payload | uint32 crc32(payload)
//	payload: numAnt × NumSubcarriers × (float64 re, float64 im)
//
// The CRC covers the payload only, so seek-free streaming reads can detect
// truncation and corruption record by record.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"repro/internal/csi"
)

// Magic identifies a .csitrace stream.
var Magic = [4]byte{'C', 'S', 'I', 'T'}

// Version is the current format version.
const Version uint16 = 1

// ErrCorrupt is returned (wrapped) when a record fails its checksum.
var ErrCorrupt = errors.New("trace: corrupt record")

// Header describes a trace stream.
type Header struct {
	Version uint16
	NumAnt  int
	Carrier float64
}

// Writer streams CSI packets to w.
type Writer struct {
	w      io.Writer
	numAnt int
	wrote  bool
	hdr    Header
}

// NewWriter prepares a writer for packets with numAnt antennas at the given
// carrier. The header is emitted lazily on the first Write so that an
// erroring setup leaves no partial file.
func NewWriter(w io.Writer, numAnt int, carrier float64) (*Writer, error) {
	if w == nil {
		return nil, fmt.Errorf("trace: nil writer")
	}
	if numAnt < 1 || numAnt > 255 {
		return nil, fmt.Errorf("trace: antenna count %d outside [1,255]", numAnt)
	}
	if err := csi.CheckCarrier(carrier); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &Writer{
		w:      w,
		numAnt: numAnt,
		hdr:    Header{Version: Version, NumAnt: numAnt, Carrier: carrier},
	}, nil
}

func (tw *Writer) writeHeader() error {
	buf := make([]byte, 0, 16)
	buf = append(buf, Magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = append(buf, byte(tw.numAnt), 0)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tw.hdr.Carrier))
	if _, err := tw.w.Write(buf); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	return nil
}

// WritePacket appends one CSI packet to the stream.
func (tw *Writer) WritePacket(p csi.Packet) error {
	if p.CSI == nil {
		return fmt.Errorf("trace: packet %d has nil CSI", p.Seq)
	}
	if p.CSI.NumAntennas() != tw.numAnt {
		return fmt.Errorf("trace: packet %d has %d antennas, writer expects %d",
			p.Seq, p.CSI.NumAntennas(), tw.numAnt)
	}
	if !tw.wrote {
		if err := tw.writeHeader(); err != nil {
			return err
		}
		tw.wrote = true
	}
	payload := make([]byte, 0, tw.numAnt*csi.NumSubcarriers*16)
	for _, row := range p.CSI.Values {
		for _, v := range row {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(real(v)))
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(imag(v)))
		}
	}
	buf := make([]byte, 0, 12+len(payload)+4)
	buf = binary.LittleEndian.AppendUint32(buf, p.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Timestamp.UnixNano()))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	if _, err := tw.w.Write(buf); err != nil {
		return fmt.Errorf("trace: writing packet %d: %w", p.Seq, err)
	}
	return nil
}

// WriteCapture writes every packet of a capture.
func (tw *Writer) WriteCapture(c *csi.Capture) error {
	for i := range c.Packets {
		if err := tw.WritePacket(c.Packets[i]); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarises what a Reader has seen — the per-record accounting the
// tolerant mode reports instead of aborting.
type Stats struct {
	// Packets is the number of records decoded successfully.
	Packets int
	// Skipped is the number of records dropped (all causes).
	Skipped int
	// CRCErrors is the number of records dropped for checksum failure.
	CRCErrors int
}

// Reader streams CSI packets from r.
type Reader struct {
	r        io.Reader
	hdr      Header
	tolerant bool
	stats    Stats
	payload  []byte // reusable record payload buffer
	// head and crc receive each record's fixed-size fields (head first
	// receives the stream header). They live here rather than on the stack
	// because io.ReadFull's io.Reader would move a local array to the heap
	// on every record.
	head [12]byte
	crc  [4]byte
	// newMatrix, when set via SetMatrixSource, supplies the matrix each
	// decoded record fills — the serving decode path points it at an arena.
	newMatrix func(numAnt int) (*csi.Matrix, error)
}

// NewReader validates the stream header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	if r == nil {
		return nil, fmt.Errorf("trace: nil reader")
	}
	tr := &Reader{r: r}
	magic := tr.head[:4]
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if [4]byte(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	rest := tr.head[:12]
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	hdr := Header{
		Version: binary.LittleEndian.Uint16(rest[0:2]),
		NumAnt:  int(rest[2]),
		Carrier: math.Float64frombits(binary.LittleEndian.Uint64(rest[4:12])),
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr.Version)
	}
	if hdr.NumAnt < 1 {
		return nil, fmt.Errorf("trace: header has %d antennas", hdr.NumAnt)
	}
	if csi.CheckCarrier(hdr.Carrier) != nil {
		return nil, fmt.Errorf("trace: header has invalid carrier %v", hdr.Carrier)
	}
	tr.hdr = hdr
	return tr, nil
}

// Header returns the stream header.
func (tr *Reader) Header() Header { return tr.hdr }

// SetTolerant switches the reader between strict mode (the default: any
// checksum failure aborts the read with an ErrCorrupt-wrapping error) and
// tolerant mode, where corrupt records are skipped and counted in Stats —
// the per-record CRC exists exactly so a reader can resynchronise at the
// next record boundary instead of losing the whole trace.
func (tr *Reader) SetTolerant(t bool) { tr.tolerant = t }

// Stats reports the per-record accounting so far.
func (tr *Reader) Stats() Stats { return tr.stats }

// SetMatrixSource overrides where decoded records get their CSI matrices.
// By default every record allocates a fresh csi.NewMatrix; a caller that
// owns the packets' lifetime (e.g. a per-request decode) can point the
// reader at an arena instead. src receives the stream's antenna count and
// must return a zeroed or overwritable matrix; pass nil to restore the
// default.
func (tr *Reader) SetMatrixSource(src func(numAnt int) (*csi.Matrix, error)) {
	tr.newMatrix = src
}

// ReadPacket reads the next packet. It returns io.EOF at a clean end of
// stream and io.ErrUnexpectedEOF on truncation. On checksum failure a
// strict reader returns an error wrapping ErrCorrupt; a tolerant reader
// (SetTolerant) skips to the next record boundary and keeps going,
// counting the damage in Stats.
func (tr *Reader) ReadPacket() (csi.Packet, error) {
	for {
		pkt, err := tr.readRecord()
		if err != nil && tr.tolerant && errors.Is(err, ErrCorrupt) {
			tr.stats.Skipped++
			tr.stats.CRCErrors++
			continue
		}
		if err != nil && tr.tolerant && errors.Is(err, io.ErrUnexpectedEOF) {
			// A trailing half-record: the writer died mid-record. Count it
			// and report a clean end of stream.
			tr.stats.Skipped++
			return csi.Packet{}, io.EOF
		}
		if err == nil {
			tr.stats.Packets++
		}
		return pkt, err
	}
}

// readRecord decodes exactly one framed record.
func (tr *Reader) readRecord() (csi.Packet, error) {
	head := tr.head[:]
	if _, err := io.ReadFull(tr.r, head); err != nil {
		if errors.Is(err, io.EOF) {
			return csi.Packet{}, io.EOF
		}
		return csi.Packet{}, fmt.Errorf("trace: reading record head: %w", err)
	}
	seq := binary.LittleEndian.Uint32(head[0:4])
	nanos := int64(binary.LittleEndian.Uint64(head[4:12]))
	if n := tr.hdr.NumAnt * csi.NumSubcarriers * 16; cap(tr.payload) < n {
		tr.payload = make([]byte, n)
	} else {
		tr.payload = tr.payload[:n]
	}
	payload := tr.payload
	if _, err := io.ReadFull(tr.r, payload); err != nil {
		return csi.Packet{}, fmt.Errorf("trace: reading record payload: %w", err)
	}
	if _, err := io.ReadFull(tr.r, tr.crc[:]); err != nil {
		return csi.Packet{}, fmt.Errorf("trace: reading record crc: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(tr.crc[:]); got != want {
		return csi.Packet{}, fmt.Errorf("trace: record %d crc %08x != %08x: %w", seq, got, want, ErrCorrupt)
	}
	newMatrix := tr.newMatrix
	if newMatrix == nil {
		newMatrix = csi.NewMatrix
	}
	m, err := newMatrix(tr.hdr.NumAnt)
	if err != nil {
		return csi.Packet{}, fmt.Errorf("trace: %w", err)
	}
	off := 0
	for ant := 0; ant < tr.hdr.NumAnt; ant++ {
		for sub := 0; sub < csi.NumSubcarriers; sub++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
			m.Values[ant][sub] = complex(re, im)
			off += 16
		}
	}
	return csi.Packet{
		Seq:       seq,
		Timestamp: time.Unix(0, nanos),
		Carrier:   tr.hdr.Carrier,
		CSI:       m,
	}, nil
}

// ReadAll reads every remaining packet into a capture.
func (tr *Reader) ReadAll() (*csi.Capture, error) {
	var cap csi.Capture
	for {
		p, err := tr.ReadPacket()
		if errors.Is(err, io.EOF) {
			return &cap, nil
		}
		if err != nil {
			return nil, err
		}
		cap.Packets = append(cap.Packets, p)
	}
}
