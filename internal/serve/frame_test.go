package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
)

// reseal recomputes a frame's CRC trailer after a hand edit, so a case
// gets past the CRC to the check it targets.
func reseal(frame []byte) []byte {
	body := frame[:len(frame)-batchCRCLen]
	return binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
}

type frameCase struct {
	name  string
	frame []byte
	slots [][]byte // the round trip's slots; nil for a rejection
	err   string   // what a rejection's error says
}

// frameCases is the codec table: round trips at 1, 3 and MaxBatchSlots
// slots, then every way a frame is rejected.
func frameCases() []frameCase {
	one := [][]byte{[]byte(`{"baseline":"QUJD","target":"QUJD"}`)}
	three := [][]byte{[]byte(`{}`), {}, []byte(`{},{}`)} // slots are opaque: empty and malformed are fine
	full := make([][]byte, MaxBatchSlots)
	for i := range full {
		full[i] = fmt.Appendf(nil, `{"slot":%d}`, i)
	}
	good := AppendBatchFrame(nil, one)
	edit := func(f func(frame []byte) []byte) []byte { return f(slices.Clone(good)) }
	return []frameCase{
		{name: "1 slot", frame: good, slots: one},
		{name: "3 slots", frame: AppendBatchFrame(nil, three), slots: three},
		{name: "MaxBatchSlots slots", frame: AppendBatchFrame(nil, full), slots: full},
		{name: "truncated header", frame: good[:batchHeaderLen+batchCRCLen-1], err: "shorter than a header"},
		{name: "bad magic", frame: edit(func(b []byte) []byte { b[0] = 'X'; return reseal(b) }), err: "bad magic"},
		{name: "count 0", frame: AppendBatchFrame(nil, nil), err: "0 slots"},
		{name: "count MaxBatchSlots+1", frame: AppendBatchFrame(nil, append(full, full[0])), err: fmt.Sprintf("%d slots", MaxBatchSlots+1)},
		{name: "length past the end", frame: edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[batchHeaderLen:], uint32(len(one[0])+1))
			return reseal(b)
		}), err: "slot 0 length"},
		{name: "missing slot", frame: edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 2)
			return reseal(b)
		}), err: "slot 1 length past the end"},
		{name: "trailing bytes", frame: edit(func(b []byte) []byte {
			return reseal(append(b[:len(b)-batchCRCLen], "junk\x00\x00\x00\x00"...))
		}), err: "4 trailing bytes"},
		{name: "flipped bit", frame: edit(func(b []byte) []byte { b[batchHeaderLen+batchSlotLen] ^= 0x10; return b }), err: "crc"},
	}
}

func TestBatchFrame(t *testing.T) {
	for _, tc := range frameCases() {
		slots, err := ParseBatchFrame(tc.frame)
		if tc.slots == nil {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want one saying %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !slices.EqualFunc(slots, tc.slots, bytes.Equal) {
			t.Errorf("%s: parsed %q, want %q", tc.name, slots, tc.slots)
		}
		payload := 0
		for _, s := range tc.slots {
			payload += len(s)
		}
		if got := BatchFrameSize(len(tc.slots), int64(payload)); got != int64(len(tc.frame)) {
			t.Errorf("%s: BatchFrameSize %d, frame is %d bytes", tc.name, got, len(tc.frame))
		}
		if got := AppendBatchFrame([]byte("prefix"), tc.slots); !bytes.Equal(got[len("prefix"):], tc.frame) {
			t.Errorf("%s: appending after a prefix changed the frame", tc.name)
		}
	}
}

// FuzzBatchFrame checks the codec on arbitrary input, as sent and with its
// CRC trailer recomputed (so mutations reach the slot walk): it never
// panics, and an accepted frame has 1..MaxBatchSlots slots, each lying
// exactly where the layout puts it inside the input, that re-encode to the
// same bytes. Seeds (testdata/fuzz/FuzzBatchFrame) are the frameCases
// frames.
func FuzzBatchFrame(f *testing.F) {
	check := func(t *testing.T, frame []byte) {
		slots, err := ParseBatchFrame(frame)
		if err != nil {
			return
		}
		if len(slots) < 1 || len(slots) > MaxBatchSlots {
			t.Fatalf("accepted %d slots", len(slots))
		}
		off := batchHeaderLen
		for i, s := range slots {
			off += batchSlotLen
			if off+len(s) > len(frame)-batchCRCLen || (len(s) > 0 && &s[0] != &frame[off]) {
				t.Fatalf("slot %d (%d bytes) does not lie at offset %d of a %d-byte input", i, len(s), off, len(frame))
			}
			off += len(s)
		}
		if !bytes.Equal(AppendBatchFrame(nil, slots), frame) {
			t.Fatal("the slots re-encode to different bytes")
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		check(t, frame)
		if len(frame) >= batchCRCLen {
			check(t, reseal(frame))
		}
	})
}
