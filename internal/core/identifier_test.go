package core_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/simulate"
)

// liquidSessions generates `trials` lab sessions for each named liquid.
func liquidSessions(t testing.TB, liquids []string, trials int) (sessions []*csi.Session, labels []string) {
	t.Helper()
	db := material.PaperDatabase()
	for mi, name := range liquids {
		m, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := simulate.Default()
		sc.Liquid = &m
		for trial := 0; trial < trials; trial++ {
			s, err := simulate.Session(sc, int64(mi*100000+trial*7919))
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
			labels = append(labels, name)
		}
	}
	return sessions, labels
}

func TestIdentifierTrainAndIdentify(t *testing.T) {
	// End-to-end: train on three well-separated liquids in the lab room,
	// identify held-out sessions of the same liquids.
	liquids := []string{material.PureWater, material.Honey, material.Oil}
	sessions, labels := liquidSessions(t, liquids, 8)
	cfg := core.IdentifierConfig{Pipeline: core.DefaultConfig()}

	// Hold out the last 2 trials per liquid (they sit at the end of each
	// 8-session block).
	var trainS, testS []*csi.Session
	var trainL, testL []string
	for i := range sessions {
		if i%8 < 6 {
			trainS = append(trainS, sessions[i])
			trainL = append(trainL, labels[i])
		} else {
			testS = append(testS, sessions[i])
			testL = append(testL, labels[i])
		}
	}
	id, err := core.TrainIdentifier(trainS, trainL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, s := range testS {
		got, err := id.Identify(s)
		if err != nil {
			t.Fatal(err)
		}
		if got == testL[i] {
			correct++
		}
	}
	if correct < len(testS)-1 {
		t.Errorf("identified %d/%d well-separated liquids", correct, len(testS))
	}
}

func TestIdentifierValidation(t *testing.T) {
	cfg := core.IdentifierConfig{Pipeline: core.DefaultConfig()}
	if _, err := core.TrainIdentifier(nil, nil, cfg); err == nil {
		t.Error("empty training set should error")
	}
	sessions, labels := liquidSessions(t, []string{material.PureWater}, 1)
	if _, err := core.TrainIdentifier(sessions, labels[:0], cfg); err == nil {
		t.Error("label length mismatch should error")
	}
}

func TestIdentifierKNNBackend(t *testing.T) {
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey}, 5)
	cfg := core.IdentifierConfig{Pipeline: core.DefaultConfig(), Kind: core.ClassifierKNN}
	id, err := core.TrainIdentifier(sessions, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := id.Identify(sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != labels[0] {
		t.Errorf("kNN identified %q, want %q", got, labels[0])
	}
}

func TestIdentifierUnknownBackend(t *testing.T) {
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey}, 1)
	cfg := core.IdentifierConfig{Pipeline: core.DefaultConfig(), Kind: core.ClassifierKind(99)}
	if _, err := core.TrainIdentifier(sessions, labels, cfg); err == nil {
		t.Error("unknown classifier kind should error")
	}
}

func TestIdentifyFeaturesDirect(t *testing.T) {
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey}, 5)
	cfg := core.IdentifierConfig{Pipeline: core.DefaultConfig()}
	id, err := core.TrainIdentifier(sessions, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := core.ExtractFeatures(sessions[0], cfg.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if got := id.IdentifyFeatures(feats.Vector); got != labels[0] {
		t.Errorf("IdentifyFeatures = %q, want %q", got, labels[0])
	}
}

func TestIdentifierAutoTune(t *testing.T) {
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey, material.Oil}, 6)
	cfg := core.IdentifierConfig{Pipeline: core.DefaultConfig(), AutoTune: true}
	id, err := core.TrainIdentifier(sessions, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tuned model must still classify the training data correctly on a
	// well-separated task.
	correct := 0
	for i, s := range sessions {
		got, err := id.Identify(s)
		if err != nil {
			t.Fatal(err)
		}
		if got == labels[i] {
			correct++
		}
	}
	if correct < len(sessions)-1 {
		t.Errorf("auto-tuned identifier got %d/%d", correct, len(sessions))
	}
}

func TestNoveltyScoreSeparatesStranger(t *testing.T) {
	// Train without liquor; liquor sessions must score far higher than
	// known liquids.
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey, material.Oil}, 8)
	id, err := core.TrainIdentifier(sessions, labels, core.IdentifierConfig{Pipeline: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	knownScore, err := id.NoveltyScore(sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	strangerSessions, _ := liquidSessions(t, []string{material.Liquor}, 1)
	strangerScore, err := id.NoveltyScore(strangerSessions[0])
	if err != nil {
		t.Fatal(err)
	}
	if strangerScore < 3 {
		t.Errorf("stranger novelty %v, want > 3", strangerScore)
	}
	if knownScore > 2 {
		t.Errorf("training-session novelty %v, want small", knownScore)
	}
	if strangerScore < 2*knownScore {
		t.Errorf("no separation: stranger %v vs known %v", strangerScore, knownScore)
	}
}

func TestIdentifyWithConfidence(t *testing.T) {
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey, material.Oil}, 6)
	id, err := core.TrainIdentifier(sessions, labels, core.IdentifierConfig{Pipeline: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	det, err := id.IdentifyDetailed(sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	label, conf := det.Material, det.Confidence
	if label != labels[0] {
		t.Errorf("label = %q, want %q", label, labels[0])
	}
	if conf < 0 || conf > 1 {
		t.Errorf("confidence %v outside [0,1]", conf)
	}
	// Well-separated training data should classify with full confidence.
	if conf < 0.99 {
		t.Errorf("confidence %v, want ≈1 on separable data", conf)
	}
}

func TestNoveltySurvivesSaveLoad(t *testing.T) {
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey}, 5)
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
	a, err := id.NoveltyScore(sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.NoveltyScore(sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("novelty score changed across save/load: %v vs %v", a, b)
	}
}
