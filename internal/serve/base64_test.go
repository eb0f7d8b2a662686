package serve

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"testing"
)

// stdlibCanonical is the rule decodeBase64 follows: a span is canonical
// exactly when base64.StdEncoding.Decode decodes it without error and
// without skipping a byte — its length is a multiple of four and it yields
// len(src)/4*3 bytes less one per padding '=' — and the decoded bytes are
// the standard library's.
func stdlibCanonical(src []byte) ([]byte, bool) {
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(dst, src)
	if err != nil || len(src)%4 != 0 {
		return nil, false
	}
	pads := len(src) - len(bytes.TrimRight(src, "="))
	return dst[:n], n == len(src)/4*3-pads
}

// base64Diff describes how decodeBase64 departs from stdlibCanonical on
// src, or returns "" when it accepts the same span and decodes the same
// bytes. dst is exactly the length canonicalTraces hands the decoder, so a
// write past it panics.
func base64Diff(src []byte) string {
	want, wantOK := stdlibCanonical(src)
	got, ok := decodeBase64(make([]byte, len(src)/4*3), src)
	switch {
	case ok != wantOK:
		return fmt.Sprintf("%q: accepted %v, standard library %v", src, ok, wantOK)
	case ok && !bytes.Equal(got, want):
		return fmt.Sprintf("%q: decoded %x, standard library %x", src, got, want)
	}
	return ""
}

// TestDecodeBase64MatchesStdlib pins decodeBase64 to stdlibCanonical on
// every raw length 0..64 (so the 16-character step, the 4-character loop
// and all three final-quantum forms run), on every byte value at every
// position of a span with a step, loop quanta and a final quantum of each
// form, and on the malformed final quanta and non-zero discarded bits,
// alone and after a full step.
func TestDecodeBase64MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, 64)
	rng.Read(raw)
	check := func(src []byte) {
		t.Helper()
		if d := base64Diff(src); d != "" {
			t.Error(d)
		}
	}
	for n := 0; n <= len(raw); n++ {
		check([]byte(base64.StdEncoding.EncodeToString(raw[:n])))
	}
	// 18, 19 and 20 raw bytes encode to a 16-character step, one or two
	// loop quanta and a final quantum of the form xxxx, xx== and xxx=.
	for _, n := range []int{18, 19, 20} {
		span := []byte(base64.StdEncoding.EncodeToString(raw[:n]))
		for pos := range span {
			for c := 0; c < 256; c++ {
				edited := bytes.Clone(span)
				edited[pos] = byte(c)
				check(edited)
			}
		}
	}
	body := []byte(base64.StdEncoding.EncodeToString(raw[:15])) // a step and a loop quantum
	for _, last := range []string{"x===", "xx=x", "=xxx", "====", "QR==", "QUJ=", "QUJD", "QQ==", "QUI="} {
		check([]byte(last))
		check(append(bytes.Clone(body), last...))
	}
}

// FuzzDecodeBase64 checks decodeBase64 against stdlibCanonical on
// arbitrary spans. Seeds (testdata/fuzz/FuzzDecodeBase64) are the empty
// span, each final-quantum form, the malformed quanta, non-zero discarded
// bits, a span long enough for the 16-character step, and spans that the
// standard library decodes by skipping '\r' or '\n'.
func FuzzDecodeBase64(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		if d := base64Diff(src); d != "" {
			t.Fatal(d)
		}
	})
}
