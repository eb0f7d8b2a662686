package svm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func trainedMulticlass(t testing.TB, kernel Kernel) (*Multiclass, [][]float64, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	centers := map[string][2]float64{"a": {0, 0}, "b": {4, 0}, "c": {2, 4}}
	var x [][]float64
	var labels []string
	for _, name := range []string{"a", "b", "c"} {
		c := centers[name]
		for i := 0; i < 30; i++ {
			x = append(x, []float64{c[0] + rng.NormFloat64()*0.4, c[1] + rng.NormFloat64()*0.4})
			labels = append(labels, name)
		}
	}
	mc, err := TrainMulticlass(x, labels, kernel, Config{C: 10})
	if err != nil {
		t.Fatal(err)
	}
	return mc, x, labels
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, kernel := range []Kernel{LinearKernel{}, RBFKernel{Gamma: 0.5}, PolyKernel{Degree: 2, Coef: 1}} {
		t.Run(kernel.Name(), func(t *testing.T) {
			mc, x, _ := trainedMulticlass(t, kernel)
			var buf bytes.Buffer
			if err := mc.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadMulticlass(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// Every prediction must be identical.
			for i := range x {
				if a, b := mc.Predict(x[i]), loaded.Predict(x[i]); a != b {
					t.Fatalf("sample %d: original %q, loaded %q", i, a, b)
				}
			}
			// Fresh probes too.
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 50; i++ {
				p := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
				if a, b := mc.Predict(p), loaded.Predict(p); a != b {
					t.Fatalf("probe %d: original %q, loaded %q", i, a, b)
				}
			}
		})
	}
}

// frameModel wraps a JSON payload in the v2 frame (magic, length, CRC),
// so a validation row gets past the frame's own checks to the one it
// targets.
func frameModel(payload string) []byte {
	b := append([]byte(nil), modelMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(payload)))
}

// TestLoadRejectsGarbage drives each of the decoder's validation checks
// with a well-framed v2 model that fails only that check, and pins that a
// bare-JSON v1 file is refused on its magic.
func TestLoadRejectsGarbage(t *testing.T) {
	const machine = `{"kernel":{"kind":"linear"},"vectors":[[1]],"coefs":[1],"bias":0}`
	for _, tc := range []struct {
		name    string
		in      []byte
		errWant string
	}{
		{"not a model", []byte("not json"), "bad model magic"},
		{"v1 bare JSON refused", []byte(`{"version":1,"classes":["a","b"],"pair_a":[0],"pair_b":[1],"models":[` + machine + `]}`),
			"bad model magic"},
		{"payload not JSON", frameModel("not json"), "decoding model payload"},
		{"wrong version", frameModel(`{"version":99}`), "unsupported model version 99"},
		{"framed v1 payload", frameModel(`{"version":1,"classes":["a","b"],"pair_a":[0],"pair_b":[1],"models":[` + machine + `]}`),
			"unsupported model version 1"},
		{"single class", frameModel(`{"version":2,"classes":["a"]}`), "model has 1 classes"},
		{"machine count mismatch", frameModel(`{"version":2,"classes":["a","b"],"pair_a":[0],"pair_b":[1],"models":[]}`),
			"model has 0 pairwise machines, want 1"},
		{"duplicate classes", frameModel(`{"version":2,"classes":["a","a"],"pair_a":[0],"pair_b":[1],"models":[{}]}`),
			"invalid class list"},
		{"out-of-range pair index", frameModel(`{"version":2,"classes":["a","b"],"pair_a":[0],"pair_b":[7],"models":[` + machine + `]}`),
			"machine 0 references classes 0/7 of 2"},
		{"vectors/coefs mismatch", frameModel(`{"version":2,"classes":["a","b"],"pair_a":[0],"pair_b":[1],` +
			`"models":[{"kernel":{"kind":"rbf","gamma":1},"vectors":[[1],[2]],"coefs":[1],"bias":0}]}`),
			"machine 0 has 2 vectors and 1 coefs"},
		{"unknown kernel", frameModel(`{"version":2,"classes":["a","b"],"pair_a":[0],"pair_b":[1],` +
			`"models":[{"kernel":{"kind":"quantum"},"vectors":[[1]],"coefs":[1],"bias":0}]}`),
			`unknown kernel kind "quantum"`},
		{"gamma 0", frameModel(`{"version":2,"classes":["a","b"],"pair_a":[0],"pair_b":[1],` +
			`"models":[{"kernel":{"kind":"rbf","gamma":0},"vectors":[[1]],"coefs":[1],"bias":0}]}`),
			"rbf kernel needs positive gamma"},
	} {
		_, err := LoadMulticlass(bytes.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.errWant)
		}
	}
	// The rows' machine is valid on its own: framed with two distinct
	// classes it loads, so each row above fails only on what it breaks.
	if _, err := LoadMulticlass(bytes.NewReader(frameModel(
		`{"version":2,"classes":["a","b"],"pair_a":[0],"pair_b":[1],"models":[` + machine + `]}`))); err != nil {
		t.Errorf("the rows' valid base model: %v", err)
	}
}

func TestSaveWithMetaRoundTrip(t *testing.T) {
	mc, x, labels := trainedMulticlass(t, RBFKernel{Gamma: 0.5})
	meta := Meta{
		TrainedAt:   "2026-08-06T00:00:00Z",
		Samples:     len(x),
		Note:        "serialize_test fixture",
		FeatureMean: []float64{1.5, -0.25},
		FeatureStd:  []float64{2, 3},
	}
	var buf bytes.Buffer
	if err := mc.SaveWithMeta(&buf, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta, err := LoadMulticlassMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.TrainedAt != meta.TrainedAt || gotMeta.Samples != meta.Samples || gotMeta.Note != meta.Note {
		t.Errorf("meta round trip: got %+v, want %+v", gotMeta, meta)
	}
	if len(gotMeta.FeatureMean) != 2 || gotMeta.FeatureMean[0] != 1.5 ||
		len(gotMeta.FeatureStd) != 2 || gotMeta.FeatureStd[1] != 3 {
		t.Errorf("scaling constants round trip: got %+v", gotMeta)
	}
	for i := range x {
		if a, b := mc.Predict(x[i]), loaded.Predict(x[i]); a != b {
			t.Fatalf("sample %d (%s): original %q, loaded %q", i, labels[i], a, b)
		}
	}
}

// savedModel is a trained model in the framed v2 format.
func savedModel(t testing.TB) []byte {
	mc, _, _ := trainedMulticlass(t, RBFKernel{Gamma: 0.5})
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 20 {
		t.Fatalf("frame implausibly small: %d bytes", buf.Len())
	}
	return buf.Bytes()
}

type corruptFrame struct {
	name    string
	input   []byte
	errWant string
}

// corruptFrames damages the good frame in every way a file can plausibly
// suffer: truncation at each frame boundary, bit flips in every section,
// and an oversized or zero length header.
func corruptFrames(good []byte) []corruptFrame {
	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	return []corruptFrame{
		{"empty", nil, "truncated"},
		{"truncated magic", good[:5], "truncated"},
		{"truncated length", good[:10], "truncated"},
		{"truncated payload", good[:len(good)/2], "truncated"},
		{"truncated checksum", good[:len(good)-2], "truncated"},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), "magic"},
		{"flipped payload byte", corrupt(func(b []byte) []byte { b[12+50] ^= 0xFF; return b }), "corrupt"},
		{"flipped checksum", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }), "corrupt"},
		{"implausible length", corrupt(func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}), "length"},
		{"zero length", corrupt(func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0, 0, 0, 0
			return b
		}), "length"},
	}
}

// TestLoadRejectsCorruptFrames drives the framed v2 decoder through every
// damage mode in corruptFrames.
func TestLoadRejectsCorruptFrames(t *testing.T) {
	for _, tc := range corruptFrames(savedModel(t)) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadMulticlass(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatalf("%s decoded successfully", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Errorf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
}

// TestLoadAllocatesWhatIsPresent pins that a header cannot make the
// decoder allocate what it declares: 12 bytes claiming a 64 MiB payload
// fail as truncated after allocating about one read chunk.
func TestLoadAllocatesWhatIsPresent(t *testing.T) {
	input := binary.LittleEndian.AppendUint32(append([]byte(nil), modelMagic[:]...), 64<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadMulticlass(bytes.NewReader(input))
	runtime.ReadMemStats(&after)
	const want = "model truncated reading payload (want 67108864 bytes)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want one containing %q", err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Errorf("a 12-byte input allocated %d bytes, want under 2 MiB", alloc)
	}
}

// TestLoadReadsPayloadAcrossChunks covers payloads longer than one read
// chunk: one cut at a chunk boundary fails as io.ReadFull would fail one
// read of the whole payload, and one present in full reaches the
// payload's own checks.
func TestLoadReadsPayloadAcrossChunks(t *testing.T) {
	cut := frameModel(strings.Repeat(" ", 3<<20))[:12+payloadChunk]
	whole := frameModel(`{"version":99}` + strings.Repeat(" ", 5<<19))
	for _, tc := range []struct {
		name    string
		in      []byte
		errWant string
	}{
		{"1 of 3 MiB present", cut, "model truncated reading payload (want 3145728 bytes): unexpected EOF"},
		{"2.5 MiB present", whole, "unsupported model version 99"},
	} {
		_, err := LoadMulticlass(bytes.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.errWant)
		}
	}
}

// FuzzLoadMulticlass checks the decoder on arbitrary bytes, seeded with a
// saved model and every corruptFrames case: it never panics, and any
// model it accepts saves and loads again, with the second save
// byte-identical to the first.
func FuzzLoadMulticlass(f *testing.F) {
	good := savedModel(f)
	f.Add(good)
	for _, tc := range corruptFrames(good) {
		f.Add(tc.input)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mc, meta, err := LoadMulticlassMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := mc.SaveWithMeta(&first, meta); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		again, againMeta, err := LoadMulticlassMeta(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved model does not load again: %v", err)
		}
		var second bytes.Buffer
		if err := again.SaveWithMeta(&second, againMeta); err != nil {
			t.Fatalf("reloaded model does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save changed the bytes:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}

func TestKernelSpecRoundTrip(t *testing.T) {
	for _, k := range []Kernel{LinearKernel{}, RBFKernel{Gamma: 2.5}, PolyKernel{Degree: 3, Coef: 0.5}} {
		spec, err := specOf(k)
		if err != nil {
			t.Fatal(err)
		}
		back, err := spec.kernel()
		if err != nil {
			t.Fatal(err)
		}
		if back.Name() != k.Name() {
			t.Errorf("kernel round trip: %q != %q", back.Name(), k.Name())
		}
	}
}
