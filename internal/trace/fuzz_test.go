package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/csi"
)

// FuzzReader feeds arbitrary bytes to the trace reader: it must never
// panic, and must either produce valid packets or a clean error.
func FuzzReader(f *testing.F) {
	// Seed with a valid single-packet trace.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2, 5.32e9)
	if err != nil {
		f.Fatal(err)
	}
	m, err := csi.NewMatrix(2)
	if err != nil {
		f.Fatal(err)
	}
	m.Values[0][0] = 1 + 2i
	if err := w.WritePacket(csi.Packet{Seq: 1, Timestamp: time.Unix(1, 0), CSI: m}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("CSIT"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// The valid trace with a +Inf carrier in its header.
	infCarrier := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint64(infCarrier[8:16], math.Float64bits(math.Inf(1)))
	f.Add(infCarrier)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		if err := csi.CheckCarrier(r.Header().Carrier); err != nil {
			t.Fatalf("accepted a header with an invalid carrier: %v", err)
		}
		for i := 0; i < 100; i++ {
			pkt, err := r.ReadPacket()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return
				}
				return // explicit error is fine
			}
			if pkt.CSI == nil {
				t.Fatal("successful read returned nil CSI")
			}
			if pkt.CSI.NumAntennas() != r.Header().NumAnt {
				t.Fatalf("packet has %d antennas, header says %d",
					pkt.CSI.NumAntennas(), r.Header().NumAnt)
			}
		}
	})
}

// FuzzRoundTrip checks that whatever values go in, the write/read cycle is
// loss-free and never panics.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(0), int64(0), 1.0, 2.0)
	f.Add(uint32(4294967295), int64(-1), -1e308, 1e-308)
	f.Fuzz(func(t *testing.T, seq uint32, nanos int64, re, im float64) {
		m, err := csi.NewMatrix(1)
		if err != nil {
			t.Fatal(err)
		}
		for sub := 0; sub < csi.NumSubcarriers; sub++ {
			m.Values[0][sub] = complex(re, im)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 1, 5e9)
		if err != nil {
			t.Fatal(err)
		}
		in := csi.Packet{Seq: seq, Timestamp: time.Unix(0, nanos), CSI: m}
		if err := w.WritePacket(in); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		if out.Seq != seq || out.Timestamp.UnixNano() != nanos {
			t.Fatalf("metadata mismatch: %v/%v vs %v/%v", out.Seq, out.Timestamp.UnixNano(), seq, nanos)
		}
		got := out.CSI.Values[0][0]
		// NaN != NaN, so compare bit-level semantics: both NaN or equal.
		sameFloat := func(a, b float64) bool {
			return a == b || (a != a && b != b)
		}
		if !sameFloat(real(got), re) || !sameFloat(imag(got), im) {
			t.Fatalf("payload mismatch: %v vs (%v,%v)", got, re, im)
		}
	})
}
