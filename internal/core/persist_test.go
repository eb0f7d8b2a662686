package core_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/material"
)

func TestIdentifierSaveLoadSVM(t *testing.T) {
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey, material.Oil}, 6)
	id, err := core.TrainIdentifier(sessions, labels, core.IdentifierConfig{Pipeline: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadIdentifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Both identifiers must agree on every training session.
	for i, s := range sessions {
		a, err := id.Identify(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Identify(s)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("session %d: original %q, loaded %q", i, a, b)
		}
	}
	_ = labels
}

func TestIdentifierSaveLoadKNN(t *testing.T) {
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey}, 5)
	id, err := core.TrainIdentifier(sessions, labels,
		core.IdentifierConfig{Pipeline: core.DefaultConfig(), Kind: core.ClassifierKNN})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadIdentifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		a, err := id.Identify(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Identify(s)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("session %d: original %q, loaded %q", i, a, b)
		}
	}
}

// TestLoadIdentifierRejectsGarbage drives each of LoadIdentifier's checks
// with a version 2 envelope that fails only that check, and pins that a
// version 1 file, whose bare-JSON svm payload is no longer read, is
// refused on its version.
func TestLoadIdentifierRejectsGarbage(t *testing.T) {
	const pipeline = `"pipeline":{"good_subcarriers":4,"wavelet":"db2","gamma_max":1,"ref_alpha":1,"ref_delta_beta":1}`
	for _, tc := range []struct {
		name, in, errWant string
	}{
		{"not JSON", "nope", "decoding identifier"},
		{"unknown version", `{"version":9}`, "unsupported identifier version 9"},
		{"version 1 refused", `{"version":1,"kind":"svm",` + pipeline + `,"scaler":{"mean":[0],"std":[1]},` +
			`"svm":{"version":1,"classes":["a","b"],"pair_a":[0],"pair_b":[1],` +
			`"models":[{"kernel":{"kind":"linear"},"vectors":[[1]],"coefs":[1],"bias":0}]}}`,
			"unsupported identifier version 1"},
		{"unknown classifier kind", `{"version":2,"kind":"oracle",` + pipeline + `,"scaler":{"mean":[0],"std":[1]}}`,
			`unknown classifier kind "oracle"`},
		{"unknown wavelet", `{"version":2,"kind":"knn","pipeline":{"good_subcarriers":4,"wavelet":"db99","gamma_max":1,"ref_alpha":1,"ref_delta_beta":1},"scaler":{"mean":[0],"std":[1]}}`,
			`unknown wavelet "db99"`},
		{"zero scaler std", `{"version":2,"kind":"knn",` + pipeline + `,"scaler":{"mean":[0],"std":[0]}}`,
			"loaded scaler invalid"},
		{"knn without payload", `{"version":2,"kind":"knn",` + pipeline + `,"scaler":{"mean":[0],"std":[1]}}`,
			"knn model missing payload"},
		{"svm without payload", `{"version":2,"kind":"svm",` + pipeline + `,"scaler":{"mean":[0],"std":[1]}}`,
			"svm model missing payload"},
	} {
		_, err := core.LoadIdentifier(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.errWant)
		}
	}
}
