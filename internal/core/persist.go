package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/classify"
	"repro/internal/dwt"
	"repro/internal/svm"
)

// identifierModel is the serialised form of a trained Identifier.
type identifierModel struct {
	Version  int           `json:"version"`
	Kind     string        `json:"kind"` // "svm" or "knn"
	Pipeline pipelineModel `json:"pipeline"`
	Scaler   scalerModel   `json:"scaler"`
	TrainX   [][]float64   `json:"train_x,omitempty"`
	NNScale  float64       `json:"nn_scale,omitempty"`
	// SVMBlob holds the framed svm model format (magic + version + CRC +
	// training metadata), base64 inside JSON.
	SVMBlob []byte    `json:"svm_blob,omitempty"`
	KNN     *knnModel `json:"knn,omitempty"`
}

type pipelineModel struct {
	GoodSubcarriers   int         `json:"good_subcarriers"`
	ForcedSubcarriers []int       `json:"forced_subcarriers,omitempty"`
	Pairs             []pairModel `json:"pairs,omitempty"`
	Wavelet           string      `json:"wavelet"`
	DenoiseAmplitude  bool        `json:"denoise_amplitude"`
	OmegaOnlyFeatures bool        `json:"omega_only_features"`
	GammaMax          int         `json:"gamma_max"`
	RefAlpha          float64     `json:"ref_alpha"`
	RefDeltaBeta      float64     `json:"ref_delta_beta"`
}

type pairModel struct {
	A int `json:"a"`
	B int `json:"b"`
}

type scalerModel struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

type knnModel struct {
	K      int         `json:"k"`
	X      [][]float64 `json:"x"`
	Labels []string    `json:"labels"`
}

// identifierModelVersion is bumped on breaking format changes. Version 2
// embeds the svm ensemble in its framed checksummed format, and it is the
// only version read: version 1 embedded bare JSON.
const identifierModelVersion = 2

// Save serialises a trained identifier (pipeline configuration, feature
// scaler and classifier) as JSON, so a model trained once per room can be
// reused without retraining.
func (id *Identifier) Save(w io.Writer) error {
	p := id.cfg.Pipeline
	waveletName := "db2"
	if p.Wavelet != nil {
		waveletName = p.Wavelet.Name()
	}
	mean, std := id.scaler.Params()
	out := identifierModel{
		Version: identifierModelVersion,
		Pipeline: pipelineModel{
			GoodSubcarriers:   p.GoodSubcarriers,
			ForcedSubcarriers: p.ForcedSubcarriers,
			Wavelet:           waveletName,
			DenoiseAmplitude:  p.DenoiseAmplitude,
			OmegaOnlyFeatures: p.OmegaOnlyFeatures,
			GammaMax:          p.GammaMax,
			RefAlpha:          p.RefAlpha,
			RefDeltaBeta:      p.RefDeltaBeta,
		},
		Scaler:  scalerModel{Mean: mean, Std: std},
		TrainX:  id.trainX,
		NNScale: id.nnScale,
	}
	for _, pr := range p.Pairs {
		out.Pipeline.Pairs = append(out.Pipeline.Pairs, pairModel{A: pr.A, B: pr.B})
	}
	switch model := id.model.(type) {
	case *svm.Multiclass:
		out.Kind = "svm"
		var buf bytes.Buffer
		meta := svm.Meta{
			TrainedAt:   time.Now().UTC().Format(time.RFC3339),
			Samples:     len(id.trainX),
			Note:        "wimi identifier",
			FeatureMean: mean,
			FeatureStd:  std,
		}
		if err := model.SaveWithMeta(&buf, meta); err != nil {
			return fmt.Errorf("core: saving svm: %w", err)
		}
		out.SVMBlob = buf.Bytes()
	case *classify.KNN:
		out.Kind = "knn"
		ds := model.Data()
		out.KNN = &knnModel{K: model.K(), X: ds.X, Labels: ds.Labels}
	default:
		return fmt.Errorf("core: classifier type %T is not serialisable", id.model)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("core: encoding identifier: %w", err)
	}
	return nil
}

// LoadIdentifier reads a model written by Save.
func LoadIdentifier(r io.Reader) (*Identifier, error) {
	var in identifierModel
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding identifier: %w", err)
	}
	if in.Version != identifierModelVersion {
		return nil, fmt.Errorf("core: unsupported identifier version %d", in.Version)
	}
	wavelet, err := dwt.ByName(in.Pipeline.Wavelet)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg := IdentifierConfig{
		Pipeline: Config{
			GoodSubcarriers:   in.Pipeline.GoodSubcarriers,
			ForcedSubcarriers: in.Pipeline.ForcedSubcarriers,
			Wavelet:           wavelet,
			DenoiseAmplitude:  in.Pipeline.DenoiseAmplitude,
			OmegaOnlyFeatures: in.Pipeline.OmegaOnlyFeatures,
			GammaMax:          in.Pipeline.GammaMax,
			RefAlpha:          in.Pipeline.RefAlpha,
			RefDeltaBeta:      in.Pipeline.RefDeltaBeta,
		},
	}
	for _, pr := range in.Pipeline.Pairs {
		cfg.Pipeline.Pairs = append(cfg.Pipeline.Pairs, AntennaPair{A: pr.A, B: pr.B})
	}
	if err := cfg.Pipeline.Validate(); err != nil {
		return nil, fmt.Errorf("core: loaded pipeline invalid: %w", err)
	}
	scaler, err := classify.NewScalerFromParams(in.Scaler.Mean, in.Scaler.Std)
	if err != nil {
		return nil, fmt.Errorf("core: loaded scaler invalid: %w", err)
	}
	id := &Identifier{cfg: cfg, scaler: scaler, trainX: in.TrainX, nnScale: in.NNScale}
	switch in.Kind {
	case "svm":
		cfg.Kind = ClassifierSVM
		if len(in.SVMBlob) == 0 {
			return nil, fmt.Errorf("core: svm model missing payload")
		}
		model, err := svm.LoadMulticlass(bytes.NewReader(in.SVMBlob))
		if err != nil {
			return nil, fmt.Errorf("core: loading svm: %w", err)
		}
		id.model = model
	case "knn":
		cfg.Kind = ClassifierKNN
		if in.KNN == nil {
			return nil, fmt.Errorf("core: knn model missing payload")
		}
		ds := &classify.Dataset{X: in.KNN.X, Labels: in.KNN.Labels}
		model, err := classify.NewKNN(in.KNN.K, ds)
		if err != nil {
			return nil, fmt.Errorf("core: loading knn: %w", err)
		}
		id.model = model
	default:
		return nil, fmt.Errorf("core: unknown classifier kind %q", in.Kind)
	}
	id.cfg = cfg
	return id, nil
}
