package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The POST /v1/identify/batch body is a batch frame: N raw /v1/identify
// bodies, each length-prefixed, under one checksum. Layout (all
// little-endian, like the .csitrace format):
//
//	magic "WIMB" | uint32 count | count × (uint32 len | len bytes) | uint32 crc32
//
// The CRC32 (IEEE) covers every byte before it. A slot is opaque bytes to
// the frame, so whatever a client put in one — malformed JSON included —
// stays exactly one slot: nothing inside a slot can end it early or add
// another. This file is the only code that knows the layout; serve, the
// gateway and wimi-load all go through it.

var batchMagic = [4]byte{'W', 'I', 'M', 'B'}

const (
	batchHeaderLen = 8 // magic + count
	batchSlotLen   = 4 // each slot's length prefix
	batchCRCLen    = 4
)

// BatchFrameSize is the encoded size of a frame carrying slots slots whose
// bodies total payload bytes.
func BatchFrameSize(slots int, payload int64) int64 {
	return batchHeaderLen + batchSlotLen*int64(slots) + payload + batchCRCLen
}

// AppendBatchFrame appends the frame carrying slots to dst. It encodes any
// slot count; ParseBatchFrame is what enforces 1..MaxBatchSlots.
func AppendBatchFrame(dst []byte, slots [][]byte) []byte {
	start := len(dst)
	dst = append(dst, batchMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(slots)))
	for _, s := range slots {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// ParseBatchFrame checks a whole frame and returns its slots, which alias
// frame. Any defect rejects the frame whole: a short header, bad magic, a
// CRC mismatch, a slot count outside 1..MaxBatchSlots, a slot length past
// the end, or bytes after the last slot.
func ParseBatchFrame(frame []byte) ([][]byte, error) {
	if len(frame) < batchHeaderLen+batchCRCLen {
		return nil, fmt.Errorf("batch frame: %d bytes is shorter than a header", len(frame))
	}
	if [4]byte(frame[:4]) != batchMagic {
		return nil, fmt.Errorf("batch frame: bad magic %q", frame[:4])
	}
	body := frame[:len(frame)-batchCRCLen]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(frame[len(body):]); got != want {
		return nil, fmt.Errorf("batch frame: crc %08x, trailer says %08x", got, want)
	}
	n := binary.LittleEndian.Uint32(frame[4:8])
	if n < 1 || n > MaxBatchSlots {
		return nil, fmt.Errorf("batch frame: %d slots, want 1..%d", n, MaxBatchSlots)
	}
	slots := make([][]byte, n)
	rest := body[batchHeaderLen:]
	for i := range slots {
		if len(rest) < batchSlotLen {
			return nil, fmt.Errorf("batch frame: slot %d length past the end", i)
		}
		l := binary.LittleEndian.Uint32(rest)
		rest = rest[batchSlotLen:]
		if uint64(l) > uint64(len(rest)) {
			return nil, fmt.Errorf("batch frame: slot %d length %d past the end", i, l)
		}
		slots[i], rest = rest[:l:l], rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("batch frame: %d trailing bytes after slot %d", len(rest), n-1)
	}
	return slots, nil
}
