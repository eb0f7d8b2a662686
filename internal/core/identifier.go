package core

import (
	"fmt"
	"math"

	"repro/internal/classify"
	"repro/internal/csi"
	"repro/internal/mathx"
	"repro/internal/svm"
)

// ClassifierKind selects the classification backend.
type ClassifierKind int

// Supported classifier backends.
const (
	// ClassifierSVM is the paper's choice (Sec. III-E).
	ClassifierSVM ClassifierKind = iota + 1
	// ClassifierKNN is the ablation baseline.
	ClassifierKNN
)

// IdentifierConfig parameterises training.
type IdentifierConfig struct {
	// Pipeline is the feature-extraction configuration.
	Pipeline Config
	// Kind selects the backend; zero selects the SVM.
	Kind ClassifierKind
	// SVM configures SMO training (zero value = defaults).
	SVM svm.Config
	// RBFGamma sets the RBF kernel width; zero selects 1 (features are
	// standardised, so 1 is a sensible default).
	RBFGamma float64
	// AutoTune, when set with the SVM backend, grid-searches (C, γ) with
	// 4-fold cross-validation over the training features before the final
	// fit, overriding RBFGamma and SVM.C.
	AutoTune bool
	// KNNNeighbors sets k for the kNN backend; zero selects 3.
	KNNNeighbors int
}

func (c IdentifierConfig) withDefaults() IdentifierConfig {
	if c.Kind == 0 {
		c.Kind = ClassifierSVM
	}
	if c.RBFGamma == 0 {
		c.RBFGamma = 1
	}
	if c.KNNNeighbors == 0 {
		c.KNNNeighbors = 3
	}
	return c
}

// Identifier is a trained material identifier: the "material database"
// (feature statistics captured in the trained classifier) plus the
// classifier itself.
type Identifier struct {
	cfg    IdentifierConfig
	scaler *classify.Scaler
	model  classify.Classifier
	// trainX holds the scaled training features and nnScale the median
	// leave-one-out nearest-neighbour distance among them — the calibration
	// for distance-based novelty scores (open-set rejection).
	trainX  [][]float64
	nnScale float64
}

// TrainIdentifier extracts features from every labelled session and fits
// the classifier. Sessions must all have the same antenna configuration.
func TrainIdentifier(sessions []*csi.Session, labels []string, cfg IdentifierConfig) (*Identifier, error) {
	if len(sessions) == 0 || len(sessions) != len(labels) {
		return nil, fmt.Errorf("core: need matching non-empty sessions (%d) and labels (%d)",
			len(sessions), len(labels))
	}
	cfg = cfg.withDefaults()
	// Room calibration: unless the caller pinned a subcarrier set, derive a
	// consensus set from ALL training sessions and fix it, so training and
	// later identification use identical subcarriers.
	if len(cfg.Pipeline.ForcedSubcarriers) == 0 {
		pairs := cfg.Pipeline.Pairs
		if len(pairs) == 0 {
			pairs = AllPairs(sessions[0].Baseline.NumAntennas())
		}
		if len(pairs) == 0 {
			return nil, fmt.Errorf("core: no antenna pairs available")
		}
		good, err := CalibrateSubcarriers(sessions, pairs[0], cfg.Pipeline.GoodSubcarriers)
		if err != nil {
			return nil, fmt.Errorf("core: calibrating subcarriers: %w", err)
		}
		cfg.Pipeline.ForcedSubcarriers = good
	}
	ds := &classify.Dataset{}
	for i, s := range sessions {
		feats, err := ExtractFeatures(s, cfg.Pipeline)
		if err != nil {
			return nil, fmt.Errorf("core: session %d (%s): %w", i, labels[i], err)
		}
		ds.Append(feats.Vector, labels[i])
	}
	return TrainIdentifierOnFeatures(ds, cfg)
}

// TrainIdentifierOnFeatures fits the classifier on pre-extracted feature
// vectors — the entry point experiments use after batch feature extraction.
func TrainIdentifierOnFeatures(ds *classify.Dataset, cfg IdentifierConfig) (*Identifier, error) {
	cfg = cfg.withDefaults()
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("core: training data: %w", err)
	}
	scaler, err := classify.FitScaler(ds.X)
	if err != nil {
		return nil, fmt.Errorf("core: fitting scaler: %w", err)
	}
	scaled := &classify.Dataset{X: scaler.Transform(ds.X), Labels: ds.Labels}
	id := &Identifier{cfg: cfg, scaler: scaler, trainX: scaled.X}
	id.nnScale = looNNMedian(scaled.X)
	switch cfg.Kind {
	case ClassifierSVM:
		gamma := cfg.RBFGamma
		svmCfg := cfg.SVM
		if cfg.AutoTune {
			tuned, err := svm.TuneRBF(scaled.X, scaled.Labels, svm.DefaultGrid(), 4, svmCfg.Seed+1, svmCfg.Workers)
			if err != nil {
				return nil, fmt.Errorf("core: tuning SVM: %w", err)
			}
			gamma = tuned.Best.Gamma
			svmCfg.C = tuned.Best.C
		}
		model, err := svm.TrainMulticlass(scaled.X, scaled.Labels,
			svm.RBFKernel{Gamma: gamma}, svmCfg)
		if err != nil {
			return nil, fmt.Errorf("core: training SVM: %w", err)
		}
		id.model = model
	case ClassifierKNN:
		model, err := classify.NewKNN(cfg.KNNNeighbors, scaled)
		if err != nil {
			return nil, fmt.Errorf("core: training kNN: %w", err)
		}
		id.model = model
	default:
		return nil, fmt.Errorf("core: unknown classifier kind %d", cfg.Kind)
	}
	return id, nil
}

// Identify runs the pipeline on a session and returns the predicted
// material name. It borrows scratch from the shared pipeline pool; loops
// should hold their own Pipeline and call IdentifyDetailedP.
func (id *Identifier) Identify(s *csi.Session) (string, error) {
	pl := GetPipeline()
	defer PutPipeline(pl)
	det, err := id.IdentifyDetailedP(pl, s, nil)
	return det.Material, err
}

// IdentifyFeatures classifies a pre-extracted feature vector.
func (id *Identifier) IdentifyFeatures(vector []float64) string {
	return id.model.Predict(id.scaler.TransformOne(vector))
}

// Detail is one full identification outcome — the answer an online client
// of the identifier needs in a single pass over the session.
type Detail struct {
	// Material is the best-matching database material.
	Material string
	// Confidence is the classifier's pairwise vote share in [0, 1]
	// (1 for backends without a vote notion).
	Confidence float64
	// Omega is the measured material feature Ω̄ (Eq. 21), averaged over
	// the antenna pairs that produced features.
	Omega float64
}

// IdentifyDetailed runs the pipeline once and returns the prediction,
// confidence and the measured Ω̄ together, so serving paths do not extract
// features twice. It borrows scratch from the shared pipeline pool.
func (id *Identifier) IdentifyDetailed(s *csi.Session) (*Detail, error) {
	pl := GetPipeline()
	defer PutPipeline(pl)
	det, err := id.IdentifyDetailedP(pl, s, nil)
	if err != nil {
		return nil, err
	}
	return &det, nil
}

// NoveltyScore measures how far a session's features sit from everything
// the identifier was trained on: the nearest-neighbour distance in scaled
// feature space, divided by the median leave-one-out nearest-neighbour
// distance of the training set. Scores near 1 mean "as close as training
// points are to each other"; large scores mean the liquid is not in the
// database. Thresholding (e.g. at 3) yields open-set rejection — the
// refusal to guess the paper's checkpoint scenario needs.
func (id *Identifier) NoveltyScore(s *csi.Session) (float64, error) {
	pl := GetPipeline()
	defer PutPipeline(pl)
	feats, err := pl.extractFeatures(s, id.cfg.Pipeline, nil)
	if err != nil {
		return 0, err
	}
	if len(id.trainX) == 0 || id.nnScale <= 0 {
		return 0, fmt.Errorf("core: identifier has no novelty calibration")
	}
	pl.scaled = id.scaler.TransformOneInto(pl.scaled, feats.Vector)
	return nearestDistance(pl.scaled, id.trainX, -1) / id.nnScale, nil
}

// nearestDistance returns the Euclidean distance from x to the closest row
// of set, ignoring row `skip` (pass -1 to use all rows).
func nearestDistance(x []float64, set [][]float64, skip int) float64 {
	best := math.Inf(1)
	for i, row := range set {
		if i == skip {
			continue
		}
		var d float64
		n := len(row)
		if len(x) < n {
			n = len(x)
		}
		for j := 0; j < n; j++ {
			diff := row[j] - x[j]
			d += diff * diff
		}
		if d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// looNNMedian is the median leave-one-out nearest-neighbour distance of the
// rows — the natural length scale of the training cloud.
func looNNMedian(x [][]float64) float64 {
	if len(x) < 2 {
		return 0
	}
	dists := make([]float64, len(x))
	for i := range x {
		dists[i] = nearestDistance(x[i], x, i)
	}
	return mathx.Median(dists)
}
