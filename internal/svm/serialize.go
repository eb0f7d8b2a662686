package svm

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
)

// kernelSpec is the serialised form of a kernel.
type kernelSpec struct {
	Kind   string  `json:"kind"`
	Gamma  float64 `json:"gamma,omitempty"`
	Degree int     `json:"degree,omitempty"`
	Coef   float64 `json:"coef,omitempty"`
}

func specOf(k Kernel) (kernelSpec, error) {
	switch kk := k.(type) {
	case LinearKernel:
		return kernelSpec{Kind: "linear"}, nil
	case RBFKernel:
		return kernelSpec{Kind: "rbf", Gamma: kk.Gamma}, nil
	case PolyKernel:
		return kernelSpec{Kind: "poly", Degree: kk.Degree, Coef: kk.Coef}, nil
	default:
		return kernelSpec{}, fmt.Errorf("svm: kernel %q is not serialisable", k.Name())
	}
}

func (ks kernelSpec) kernel() (Kernel, error) {
	switch ks.Kind {
	case "linear":
		return LinearKernel{}, nil
	case "rbf":
		if ks.Gamma <= 0 {
			return nil, fmt.Errorf("svm: rbf kernel needs positive gamma, got %v", ks.Gamma)
		}
		return RBFKernel{Gamma: ks.Gamma}, nil
	case "poly":
		if ks.Degree < 1 {
			return nil, fmt.Errorf("svm: poly kernel needs degree ≥ 1, got %d", ks.Degree)
		}
		return PolyKernel{Degree: ks.Degree, Coef: ks.Coef}, nil
	default:
		return nil, fmt.Errorf("svm: unknown kernel kind %q", ks.Kind)
	}
}

// binaryModel is the serialised form of a Binary SVM.
type binaryModel struct {
	Kernel  kernelSpec  `json:"kernel"`
	Vectors [][]float64 `json:"vectors"`
	Coefs   []float64   `json:"coefs"`
	Bias    float64     `json:"bias"`
	// SVIdx maps support vector i to its index in the pair's local
	// training slice — one half of the Gram index that lets a loaded
	// model keep serving PredictGram. omitempty keeps files from older
	// writers readable and files from this writer readable by them.
	SVIdx []int `json:"sv_idx,omitempty"`
}

// Meta carries training provenance inside a persisted model: when and on
// what the ensemble was trained, plus the feature-scaling constants the
// caller applied before training (the model itself sees scaled inputs, so
// serving the model without the same constants silently misclassifies).
type Meta struct {
	// TrainedAt is an RFC 3339 timestamp (informational).
	TrainedAt string `json:"trained_at,omitempty"`
	// Samples is the training-set size.
	Samples int `json:"samples,omitempty"`
	// Note is free-form provenance (tool name, scenario, operator).
	Note string `json:"note,omitempty"`
	// FeatureMean/FeatureStd are the per-dimension standardisation
	// constants applied to inputs before training.
	FeatureMean []float64 `json:"feature_mean,omitempty"`
	FeatureStd  []float64 `json:"feature_std,omitempty"`
}

// multiclassModel is the serialised form of a Multiclass ensemble.
type multiclassModel struct {
	Version int           `json:"version"`
	Classes []string      `json:"classes"`
	PairA   []int         `json:"pair_a"`
	PairB   []int         `json:"pair_b"`
	Models  []binaryModel `json:"models"`
	// PairIdx[i] maps pair i's local sample indices to training-set
	// indices (the other half of the Gram index, see binaryModel.SVIdx).
	PairIdx [][]int `json:"pair_idx,omitempty"`
	Meta    Meta    `json:"meta,omitempty"`
}

// The framed model format, version 2:
//
//	magic   "WIMISVM2" (8 bytes)
//	length  uint32 LE — payload byte count
//	payload JSON multiclassModel
//	crc     uint32 LE — IEEE CRC32 of payload
//
// The frame makes truncation and corruption first-class decode errors
// instead of whatever json.Decoder happens to notice. It is the only
// format read: a version 1 file (bare JSON, no frame) fails on its magic.
var modelMagic = [8]byte{'W', 'I', 'M', 'I', 'S', 'V', 'M', '2'}

// modelVersion is bumped on breaking format changes.
const modelVersion = 2

// maxModelPayload bounds the declared payload length so a corrupt header
// cannot provoke a giant allocation.
const maxModelPayload = 1 << 30

// Save writes the trained multiclass model in the framed v2 format with
// empty metadata. Use SaveWithMeta to record provenance.
func (mc *Multiclass) Save(w io.Writer) error {
	return mc.SaveWithMeta(w, Meta{})
}

// SaveWithMeta writes the framed v2 format: magic, payload length, JSON
// payload (kernel params, class labels, support vectors, metadata) and a
// CRC32 trailer.
func (mc *Multiclass) SaveWithMeta(w io.Writer, meta Meta) error {
	out := multiclassModel{
		Version: modelVersion,
		Classes: mc.classes,
		PairA:   mc.pairA,
		PairB:   mc.pairB,
		PairIdx: mc.pairIdx,
		Meta:    meta,
	}
	for _, m := range mc.models {
		spec, err := specOf(m.kernel)
		if err != nil {
			return err
		}
		out.Models = append(out.Models, binaryModel{
			Kernel:  spec,
			Vectors: m.vectors,
			Coefs:   m.coefs,
			Bias:    m.bias,
			SVIdx:   m.svIdx,
		})
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("svm: encoding model: %w", err)
	}
	if _, err := w.Write(modelMagic[:]); err != nil {
		return fmt.Errorf("svm: writing model header: %w", err)
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("svm: writing model header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("svm: writing model payload: %w", err)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("svm: writing model checksum: %w", err)
	}
	return nil
}

// LoadMulticlass reads a model written by Save/SaveWithMeta and validates
// its internal consistency.
func LoadMulticlass(r io.Reader) (*Multiclass, error) {
	mc, _, err := LoadMulticlassMeta(r)
	return mc, err
}

// LoadMulticlassMeta is LoadMulticlass plus the persisted training
// metadata.
func LoadMulticlassMeta(r io.Reader) (*Multiclass, Meta, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, Meta{}, fmt.Errorf("svm: model truncated reading magic: %w", err)
	}
	if magic != modelMagic {
		return nil, Meta{}, fmt.Errorf("svm: bad model magic %q (not a WiMi SVM model)", magic[:])
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, Meta{}, fmt.Errorf("svm: model truncated reading payload length: %w", err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxModelPayload {
		return nil, Meta{}, fmt.Errorf("svm: implausible model payload length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, Meta{}, fmt.Errorf("svm: model truncated reading payload (want %d bytes): %w", n, err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, Meta{}, fmt.Errorf("svm: model truncated reading checksum: %w", err)
	}
	if want, got := binary.LittleEndian.Uint32(crcBuf[:]), crc32.ChecksumIEEE(payload); want != got {
		return nil, Meta{}, fmt.Errorf("svm: model payload corrupt: crc32 %08x, header says %08x", got, want)
	}
	var in multiclassModel
	if err := json.Unmarshal(payload, &in); err != nil {
		return nil, Meta{}, fmt.Errorf("svm: decoding model payload: %w", err)
	}
	if in.Version != modelVersion {
		return nil, Meta{}, fmt.Errorf("svm: unsupported model version %d", in.Version)
	}
	mc, err := assembleMulticlass(in)
	if err != nil {
		return nil, Meta{}, err
	}
	return mc, in.Meta, nil
}

// assembleMulticlass validates a decoded model and reconstructs the
// ensemble.
func assembleMulticlass(in multiclassModel) (*Multiclass, error) {
	nc := len(in.Classes)
	if nc < 2 {
		return nil, fmt.Errorf("svm: model has %d classes", nc)
	}
	seen := make(map[string]bool, nc)
	for _, c := range in.Classes {
		if strings.TrimSpace(c) == "" || seen[c] {
			return nil, fmt.Errorf("svm: invalid class list %v", in.Classes)
		}
		seen[c] = true
	}
	wantPairs := nc * (nc - 1) / 2
	if len(in.Models) != wantPairs || len(in.PairA) != wantPairs || len(in.PairB) != wantPairs {
		return nil, fmt.Errorf("svm: model has %d pairwise machines, want %d", len(in.Models), wantPairs)
	}
	mc := &Multiclass{classes: in.Classes, pairA: in.PairA, pairB: in.PairB}
	for i, bm := range in.Models {
		if in.PairA[i] < 0 || in.PairA[i] >= nc || in.PairB[i] < 0 || in.PairB[i] >= nc {
			return nil, fmt.Errorf("svm: machine %d references classes %d/%d of %d", i, in.PairA[i], in.PairB[i], nc)
		}
		if len(bm.Vectors) == 0 || len(bm.Vectors) != len(bm.Coefs) {
			return nil, fmt.Errorf("svm: machine %d has %d vectors and %d coefs", i, len(bm.Vectors), len(bm.Coefs))
		}
		dim := len(bm.Vectors[0])
		for j, v := range bm.Vectors {
			if len(v) != dim {
				return nil, fmt.Errorf("svm: machine %d has ragged support vector %d: %d dims, want %d", i, j, len(v), dim)
			}
		}
		if i == 0 {
			mc.dim = dim
		} else if dim != mc.dim {
			return nil, fmt.Errorf("svm: machine %d trained on %d dims, others on %d", i, dim, mc.dim)
		}
		for _, v := range bm.Coefs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("svm: machine %d has non-finite coefficient", i)
			}
		}
		k, err := bm.Kernel.kernel()
		if err != nil {
			return nil, fmt.Errorf("svm: machine %d: %w", i, err)
		}
		mc.models = append(mc.models, &Binary{
			kernel:  k,
			dim:     dim,
			vectors: bm.Vectors,
			coefs:   bm.Coefs,
			bias:    bm.Bias,
		})
	}
	restoreGramIndex(mc, in)
	return mc, nil
}

// restoreGramIndex re-attaches the persisted Gram index (pair_idx +
// per-machine sv_idx) so loaded models keep serving PredictGram. The
// restore is all-or-nothing: files from older writers (no index) and files
// with an internally inconsistent index leave pairIdx nil, which
// PredictGram rejects with a descriptive panic rather than mis-indexing a
// caller's kernel row.
func restoreGramIndex(mc *Multiclass, in multiclassModel) {
	if len(in.PairIdx) != len(mc.models) {
		return
	}
	for i, bm := range in.Models {
		if len(bm.SVIdx) != len(bm.Coefs) {
			return
		}
		local := len(in.PairIdx[i])
		for _, si := range bm.SVIdx {
			if si < 0 || si >= local {
				return
			}
		}
		for _, ti := range in.PairIdx[i] {
			if ti < 0 {
				return
			}
		}
	}
	mc.pairIdx = in.PairIdx
	for i := range mc.models {
		mc.models[i].svIdx = in.Models[i].SVIdx
	}
}
