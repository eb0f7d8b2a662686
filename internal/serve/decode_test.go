package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/simulate"
)

// referenceDecode is decodeSession without the canonical path: always
// json.Unmarshal, then the same trace decode.
func referenceDecode(sc *decodeScratch, body []byte) (*csi.Session, error) {
	var req IdentifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return sc.decodeTraces(req.Baseline, req.Target)
}

// decodeDiff decodes body with decodeSession and with referenceDecode and
// describes the first way the two disagree — acceptance, error text,
// carrier, or any packet's seq, timestamp, carrier or CSI value bits — or
// returns "" when they agree exactly.
func decodeDiff(body []byte) string {
	got, gotErr := new(decodeScratch).decodeSession(body)
	want, wantErr := referenceDecode(new(decodeScratch), body)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	if math.Float64bits(got.Carrier) != math.Float64bits(want.Carrier) {
		return fmt.Sprintf("carrier %v, reference %v", got.Carrier, want.Carrier)
	}
	for _, c := range []struct {
		name      string
		got, want *csi.Capture
	}{{"baseline", &got.Baseline, &want.Baseline}, {"target", &got.Target, &want.Target}} {
		if len(c.got.Packets) != len(c.want.Packets) {
			return fmt.Sprintf("%s: %d packets, reference %d", c.name, len(c.got.Packets), len(c.want.Packets))
		}
		for i, p := range c.got.Packets {
			q := c.want.Packets[i]
			if p.Seq != q.Seq || p.Timestamp.UnixNano() != q.Timestamp.UnixNano() ||
				math.Float64bits(p.Carrier) != math.Float64bits(q.Carrier) {
				return fmt.Sprintf("%s packet %d: seq/timestamp/carrier %d/%v/%v, reference %d/%v/%v",
					c.name, i, p.Seq, p.Timestamp, p.Carrier, q.Seq, q.Timestamp, q.Carrier)
			}
			if p.CSI.NumAntennas() != q.CSI.NumAntennas() {
				return fmt.Sprintf("%s packet %d: %d antennas, reference %d", c.name, i, p.CSI.NumAntennas(), q.CSI.NumAntennas())
			}
			for a, row := range p.CSI.Values {
				for k, v := range row {
					w := q.CSI.Values[a][k]
					if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
						return fmt.Sprintf("%s packet %d antenna %d subcarrier %d: %v, reference %v", c.name, i, a, k, v, w)
					}
				}
			}
		}
	}
	return ""
}

// decodeCase is one body of the differential table; canonical says
// whether canonicalTraces must take it.
type decodeCase struct {
	name      string
	body      []byte
	canonical bool
}

// decodeCases builds the differential table from a one-packet simulated
// session (small, so the cases double as fuzz seeds, and no model is
// trained): the canonical body, bodies json.Unmarshal accepts that are
// not canonical, and bodies it rejects that a careless scanner might take.
// The same cases are committed as seeds under
// testdata/fuzz/FuzzIdentifyRequest.
func decodeCases(t testing.TB) []decodeCase {
	t.Helper()
	sc := simulate.Default()
	sc.Packets = 1
	session, err := simulate.Session(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	canonical := encodeRequest(t, session)
	b64 := func(c *csi.Capture) string {
		return base64.StdEncoding.EncodeToString(encodeTrace(t, c, session.Carrier))
	}
	baseline, target := b64(&session.Baseline), b64(&session.Target)
	// A 3-packet baseline encodes to a span ending in "==" (a 1-packet one
	// ends in a single '=').
	sc.Packets = 3
	long, err := simulate.Session(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	doublePadded := b64(&long.Baseline)
	if !strings.HasSuffix(doublePadded, "==") {
		t.Fatalf("3-packet baseline span ends %q, want ==", doublePadded[len(doublePadded)-4:])
	}
	body := func(format string, args ...any) []byte { return fmt.Appendf(nil, format, args...) }
	// inBaseline edits the baseline's base64 span; the edit must apply.
	inBaseline := func(edit func(span string) string) []byte {
		span := edit(baseline)
		if span == baseline {
			t.Fatalf("edit left the baseline span unchanged")
		}
		return body(`{"baseline":"%s","target":"%s"}`, span, target)
	}
	return []decodeCase{
		{"canonical", canonical, true},
		{"trailing-newline", append(bytes.Clone(canonical), '\n'), true},
		{"trailing-whitespace", append(bytes.Clone(canonical), " \t\r\n"...), true},
		{"empty-strings", []byte(`{"baseline":"","target":""}`), true},
		{"escaped-slash", inBaseline(func(s string) string { return strings.Replace(s, "/", `\/`, 1) }), false},
		{"unicode-escape", inBaseline(func(s string) string { return strings.Replace(s, "A", `\u0041`, 1) }), false},
		{"space-after-brace", body(`{ "baseline":"%s","target":"%s"}`, baseline, target), false},
		{"space-after-colon", body(`{"baseline": "%s","target":"%s"}`, baseline, target), false},
		{"capitalised-key", body(`{"Baseline":"%s","target":"%s"}`, baseline, target), false},
		{"reversed-keys", body(`{"target":"%s","baseline":"%s"}`, target, baseline), false},
		{"duplicate-baseline", body(`{"baseline":"QUJD","target":"%s","baseline":"%s"}`, target, baseline), false},
		{"unknown-key", body(`{"baseline":"%s","target":"%s","extra":1}`, baseline, target), false},
		{"null", []byte(`null`), false},
		{"null-baseline", body(`{"baseline":null,"target":"%s"}`, target), false},
		{"leading-space", body(` {"baseline":"%s","target":"%s"}`, baseline, target), false},
		{"lf-inside", inBaseline(func(s string) string { return s[:8] + "\n" + s[8:] }), false},
		{"four-lfs-inside", inBaseline(func(s string) string { return s[:8] + "\n\n\n\n" + s[8:] }), false},
		{"crlf-quanta-inside", inBaseline(func(s string) string { return s[:8] + "\r\n\r\n" + s[8:] }), false},
		{"lfs-after-padding", inBaseline(func(s string) string { return s + "\n\n\n\n" }), false},
		{"padding-mid-string", inBaseline(func(s string) string { return s[:6] + "==" + s[8:] }), false},
		{"non-ascii", inBaseline(func(s string) string { return s[:8] + "\xff" + s[9:] }), false},
		{"unpadded", inBaseline(func(s string) string { return strings.TrimRight(s, "=") }), false},
		{"nonzero-pad-bits", inBaseline(setDiscardedBits), true},
		{"double-padding", body(`{"baseline":"%s","target":"%s"}`, doublePadded, target), true},
		{"trailing-junk", append(bytes.Clone(canonical), "junk"...), false},
		{"truncated-canonical", canonical[:len(canonical)-1], false},
		{"canonical-twice", append(bytes.Clone(canonical), canonical...), false},
	}
}

// setDiscardedBits sets the bits a padded span's last character carries
// past the decoded bytes — the low 2 bits before "=", the low 4 before "==" —
// which every non-strict decoder ignores.
func setDiscardedBits(span string) string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	data := strings.TrimRight(span, "=")
	mask := 1<<(2*(len(span)-len(data))) - 1
	last := strings.IndexByte(alphabet, data[len(data)-1])
	return data[:len(data)-1] + string(alphabet[last|mask]) + span[len(data):]
}

// TestDecodeSessionMatchesJSONUnmarshal pins the canonical path to the
// json.Unmarshal reference: on every case both accept or both reject with
// the same error text, and accepted sessions are bit-identical. It also
// checks that each case takes the path the table says, so the canonical
// rows really exercise the fast path.
func TestDecodeSessionMatchesJSONUnmarshal(t *testing.T) {
	for _, tc := range decodeCases(t) {
		if _, _, ok := canonicalTraces(tc.body, new([]byte)); ok != tc.canonical {
			t.Errorf("%s: canonical %v, want %v", tc.name, ok, tc.canonical)
		}
		if d := decodeDiff(tc.body); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}
}

// TestClientEncodersAreCanonical pins the canonical path to the encoders
// clients use, so a field rename or reorder cannot silently send every
// request to the fallback: json.Marshal of an IdentifyRequest (wimi-load
// and the benchmark), json.Marshal of a map[string][]byte (wimi-bench) and
// the README's printf recipe must all decode on the canonical path.
func TestClientEncodersAreCanonical(t *testing.T) {
	baseline, target := []byte("CSIT baseline bytes\x00\xff"), []byte("CSIT target bytes\x01")
	fromStruct, err := json.Marshal(IdentifyRequest{Baseline: baseline, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	fromMap, err := json.Marshal(map[string][]byte{"baseline": baseline, "target": target})
	if err != nil {
		t.Fatal(err)
	}
	printf := fmt.Appendf(nil, `{"baseline":"%s","target":"%s"}`,
		base64.StdEncoding.EncodeToString(baseline), base64.StdEncoding.EncodeToString(target))
	for name, body := range map[string][]byte{"IdentifyRequest": fromStruct, "map": fromMap, "printf": printf} {
		b, tg, ok := canonicalTraces(body, new([]byte))
		if !ok || !bytes.Equal(b, baseline) || !bytes.Equal(tg, target) {
			t.Errorf("%s body %s: canonical %v, decoded %q / %q", name, body, ok, b, tg)
		}
	}
}

// FuzzIdentifyRequest feeds arbitrary bodies to the decode that a single
// /v1/identify request and every batch slot share: it never panics, a body
// it accepts yields a valid session, and it agrees exactly with the
// json.Unmarshal reference (decodeDiff). Seeds
// (testdata/fuzz/FuzzIdentifyRequest) are a small valid request, the serve
// corruption cases (non-JSON, missing traces, garbage and corrupted
// traces, a single-antenna session, trailing bytes, two values, a
// truncated body) and the decodeCases table.
func FuzzIdentifyRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if d := decodeDiff(body); d != "" {
			t.Fatal(d)
		}
		session, err := new(decodeScratch).decodeSession(body)
		if err != nil {
			return
		}
		if err := session.Validate(); err != nil {
			t.Fatalf("accepted a body whose session is invalid: %v", err)
		}
	})
}
