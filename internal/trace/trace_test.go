package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/csi"
	"repro/internal/raceflag"
)

func randomCapture(t *testing.T, rng *rand.Rand, numAnt, n int) *csi.Capture {
	t.Helper()
	var cap csi.Capture
	for i := 0; i < n; i++ {
		m, err := csi.NewMatrix(numAnt)
		if err != nil {
			t.Fatal(err)
		}
		for ant := 0; ant < numAnt; ant++ {
			for sub := 0; sub < csi.NumSubcarriers; sub++ {
				m.Values[ant][sub] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		cap.Packets = append(cap.Packets, csi.Packet{
			Seq:       uint32(i),
			Timestamp: time.Unix(1000, int64(i)*10_000_000),
			Carrier:   5.32e9,
			CSI:       m,
		})
	}
	return &cap
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := randomCapture(t, rng, 3, 25)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 3, 5.32e9)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCapture(orig); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr := r.Header(); hdr.NumAnt != 3 || hdr.Carrier != 5.32e9 || hdr.Version != Version {
		t.Fatalf("header = %+v", hdr)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("read %d packets, wrote %d", got.Len(), orig.Len())
	}
	for i := range orig.Packets {
		op, gp := orig.Packets[i], got.Packets[i]
		if gp.Seq != op.Seq {
			t.Errorf("packet %d: seq %d != %d", i, gp.Seq, op.Seq)
		}
		if !gp.Timestamp.Equal(op.Timestamp) {
			t.Errorf("packet %d: timestamp %v != %v", i, gp.Timestamp, op.Timestamp)
		}
		if gp.Carrier != op.Carrier {
			t.Errorf("packet %d: carrier mismatch", i)
		}
		for ant := range op.CSI.Values {
			for sub := range op.CSI.Values[ant] {
				if gp.CSI.Values[ant][sub] != op.CSI.Values[ant][sub] {
					t.Fatalf("packet %d csi[%d][%d] mismatch", i, ant, sub)
				}
			}
		}
	}
}

func TestNewWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(nil, 3, 5e9); err == nil {
		t.Error("nil writer should error")
	}
	if _, err := NewWriter(&buf, 0, 5e9); err == nil {
		t.Error("0 antennas should error")
	}
	if _, err := NewWriter(&buf, 300, 5e9); err == nil {
		t.Error("256+ antennas should error")
	}
	if _, err := NewWriter(&buf, 3, 0); err == nil {
		t.Error("zero carrier should error")
	}
}

// TestCarrierMustBeFiniteAndPositive pins the carrier check on both ends
// of the format: NewWriter refuses to start a trace, and NewReader refuses
// a header patched into a valid trace, unless the carrier is finite and
// positive. The values rejected before NaN and +Inf were keep their text.
func TestCarrierMustBeFiniteAndPositive(t *testing.T) {
	var valid bytes.Buffer
	w, err := NewWriter(&valid, 3, 5.32e9)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCapture(randomCapture(t, rand.New(rand.NewSource(1)), 3, 2)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		carrier           float64
		writerErr, reader string
	}{
		{5.32e9, "", ""},
		{0, "trace: non-positive carrier 0", "trace: header has invalid carrier 0"},
		{-1, "trace: non-positive carrier -1", "trace: header has invalid carrier -1"},
		{math.NaN(), "trace: non-finite carrier NaN", "trace: header has invalid carrier NaN"},
		{math.Inf(1), "trace: non-finite carrier +Inf", "trace: header has invalid carrier +Inf"},
		{math.Inf(-1), "trace: non-positive carrier -Inf", "trace: header has invalid carrier -Inf"},
	} {
		_, err := NewWriter(io.Discard, 3, tc.carrier)
		if (err == nil) != (tc.writerErr == "") || (err != nil && err.Error() != tc.writerErr) {
			t.Errorf("carrier %v: NewWriter error %v, want %q", tc.carrier, err, tc.writerErr)
		}
		data := bytes.Clone(valid.Bytes())
		binary.LittleEndian.PutUint64(data[8:16], math.Float64bits(tc.carrier))
		_, err = NewReader(bytes.NewReader(data))
		if (err == nil) != (tc.reader == "") || (err != nil && err.Error() != tc.reader) {
			t.Errorf("carrier %v: NewReader error %v, want %q", tc.carrier, err, tc.reader)
		}
	}
}

func TestWritePacketAntennaMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 3, 5e9)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := csi.NewMatrix(2)
	if err := w.WritePacket(csi.Packet{CSI: m}); err == nil {
		t.Error("antenna mismatch should error")
	}
	if err := w.WritePacket(csi.Packet{}); err == nil {
		t.Error("nil CSI should error")
	}
	// No partial header written on failure.
	if buf.Len() != 0 {
		t.Errorf("failed writes left %d bytes", buf.Len())
	}
}

func TestNewReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE00000000000000"))); err == nil || err.Error() != `trace: bad magic "NOPE"` {
		t.Errorf("bad magic: error %v", err)
	}
	if _, err := NewReader(nil); err == nil {
		t.Error("nil reader should error")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should error")
	}
}

func TestNewReaderBadVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, 5e9)
	if err := w.WriteCapture(randomCapture(t, rng, 1, 1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 0xFF // clobber version
	if _, err := NewReader(bytes.NewReader(raw)); err == nil {
		t.Error("bad version should error")
	}
}

func TestReadPacketTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2, 5e9)
	if err := w.WriteCapture(randomCapture(t, rng, 2, 2)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Chop mid-record.
	trunc := raw[:len(raw)-37]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != nil {
		t.Fatalf("first packet should read fine: %v", err)
	}
	_, err = r.ReadPacket()
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated record should be an explicit error, got %v", err)
	}
}

func TestReadPacketCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, 5e9)
	if err := w.WriteCapture(randomCapture(t, rng, 1, 1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-20] ^= 0xFF // flip a payload byte
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadPacket()
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted payload error = %v, want ErrCorrupt", err)
	}
}

func TestEmptyTraceCleanEOF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, 5e9)
	// Force the header by writing one packet, then reading two.
	if err := w.WriteCapture(randomCapture(t, rng, 1, 1)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream = %v, want io.EOF", err)
	}
}

// Property: round trip preserves arbitrary CSI values including extremes.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nAntRaw, nPktRaw uint8) bool {
		numAnt := 1 + int(nAntRaw)%4
		n := 1 + int(nPktRaw)%8
		rng := rand.New(rand.NewSource(seed))
		var cap csi.Capture
		for i := 0; i < n; i++ {
			m, err := csi.NewMatrix(numAnt)
			if err != nil {
				return false
			}
			for ant := 0; ant < numAnt; ant++ {
				for sub := 0; sub < csi.NumSubcarriers; sub++ {
					m.Values[ant][sub] = complex(rng.NormFloat64()*1e6, rng.NormFloat64()*1e-6)
				}
			}
			cap.Packets = append(cap.Packets, csi.Packet{Seq: uint32(i), Timestamp: time.Unix(0, int64(i)), Carrier: 5e9, CSI: m})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, numAnt, 5e9)
		if err != nil {
			return false
		}
		if err := w.WriteCapture(&cap); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || got.Len() != n {
			return false
		}
		for i := range cap.Packets {
			for ant := range cap.Packets[i].CSI.Values {
				for sub := range cap.Packets[i].CSI.Values[ant] {
					if got.Packets[i].CSI.Values[ant][sub] != cap.Packets[i].CSI.Values[ant][sub] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestReaderRecordsDoNotAllocate pins the streaming decode's steady state:
// once its payload buffer and an arena matrix source are warm, a reader
// decodes each further record without a heap allocation.
func TestReaderRecordsDoNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	const warm, runs = 64, 50
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 3, 5.32e9)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCapture(randomCapture(t, rand.New(rand.NewSource(3)), 3, warm+runs+1)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var arena csi.MatrixArena
	r.SetMatrixSource(arena.NewMatrix)
	read := func() {
		if _, err := r.ReadPacket(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ { // grow the arena past what the measured reads need
		read()
	}
	arena.Reset()
	if avg := testing.AllocsPerRun(runs, read); avg != 0 {
		t.Fatalf("a warmed reader allocates %.2f times per record, want 0", avg)
	}
}
