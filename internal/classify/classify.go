// Package classify provides the evaluation machinery around the SVM:
// datasets, feature scaling, a kNN baseline, train/test splitting,
// stratified k-fold cross-validation, accuracy and confusion matrices.
package classify

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dataset pairs feature vectors with string class labels.
type Dataset struct {
	X      [][]float64
	Labels []string
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks the dataset is rectangular and consistent.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Labels) {
		return fmt.Errorf("classify: %d samples but %d labels", len(d.X), len(d.Labels))
	}
	if len(d.X) == 0 {
		return fmt.Errorf("classify: empty dataset")
	}
	dim := len(d.X[0])
	for i, row := range d.X {
		if len(row) != dim {
			return fmt.Errorf("classify: ragged sample %d: %d dims, want %d", i, len(row), dim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("classify: non-finite feature at sample %d dim %d: %v", i, j, v)
			}
		}
	}
	return nil
}

// Append adds one sample.
func (d *Dataset) Append(x []float64, label string) {
	d.X = append(d.X, append([]float64(nil), x...))
	d.Labels = append(d.Labels, label)
}

// Classes returns the sorted distinct labels.
func (d *Dataset) Classes() []string {
	set := make(map[string]struct{})
	for _, l := range d.Labels {
		set[l] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Subset returns a dataset restricted to the given sample indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{}
	for _, i := range idx {
		out.X = append(out.X, d.X[i])
		out.Labels = append(out.Labels, d.Labels[i])
	}
	return out
}

// Scaler standardises features to zero mean and unit variance, fitted on
// training data and applied to both splits (never fit on test data).
type Scaler struct {
	mean, std []float64
}

// FitScaler learns per-dimension mean and standard deviation. Dimensions
// with zero variance get std 1, leaving them centred but unscaled.
func FitScaler(x [][]float64) (*Scaler, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("classify: cannot fit scaler on empty data")
	}
	dim := len(x[0])
	s := &Scaler{mean: make([]float64, dim), std: make([]float64, dim)}
	for _, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("classify: ragged data in scaler fit")
		}
		for j, v := range row {
			s.mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
	return s, nil
}

// NewScalerFromParams rebuilds a scaler from stored parameters (model
// deserialisation). mean and std must have equal length and positive stds.
func NewScalerFromParams(mean, std []float64) (*Scaler, error) {
	if len(mean) != len(std) || len(mean) == 0 {
		return nil, fmt.Errorf("classify: scaler params need matching non-empty mean (%d) and std (%d)", len(mean), len(std))
	}
	for i, s := range std {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("classify: scaler std[%d] = %v must be positive and finite", i, s)
		}
	}
	return &Scaler{
		mean: append([]float64(nil), mean...),
		std:  append([]float64(nil), std...),
	}, nil
}

// Params returns copies of the fitted mean and std vectors (for model
// serialisation).
func (s *Scaler) Params() (mean, std []float64) {
	return append([]float64(nil), s.mean...), append([]float64(nil), s.std...)
}

// Transform returns standardised copies of the rows.
func (s *Scaler) Transform(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.TransformOne(row)
	}
	return out
}

// TransformOne standardises a single sample.
func (s *Scaler) TransformOne(row []float64) []float64 {
	return s.TransformOneInto(nil, row)
}

// TransformOneInto standardises a single sample into dst, grown as needed
// and returned re-sliced to len(row), so per-prediction callers reuse the
// scaled-vector buffer. dst may be nil and must not alias row.
func (s *Scaler) TransformOneInto(dst, row []float64) []float64 {
	if cap(dst) < len(row) {
		dst = make([]float64, len(row))
	}
	out := dst[:len(row)]
	for j, v := range row {
		if j < len(s.mean) {
			out[j] = (v - s.mean[j]) / s.std[j]
		} else {
			out[j] = v
		}
	}
	return out
}

// Classifier is anything that maps a feature vector to a class label. Both
// the SVM wrapper and kNN satisfy it.
type Classifier interface {
	Predict(x []float64) string
}

// KNN is a k-nearest-neighbour classifier — the simple baseline the SVM is
// compared against in the classifier ablation.
type KNN struct {
	k    int
	data *Dataset
}

// NewKNN builds a kNN model over the dataset (which it references, not
// copies). k must be ≥ 1 and ≤ the dataset size.
func NewKNN(k int, data *Dataset) (*KNN, error) {
	if err := data.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || k > data.Len() {
		return nil, fmt.Errorf("classify: k=%d outside [1,%d]", k, data.Len())
	}
	return &KNN{k: k, data: data}, nil
}

// K returns the neighbour count.
func (m *KNN) K() int { return m.k }

// Data returns the training dataset the model references.
func (m *KNN) Data() *Dataset { return m.data }

// Predict implements Classifier by majority vote among the k nearest
// training samples (Euclidean), ties broken by summed inverse distance.
func (m *KNN) Predict(x []float64) string {
	type neighbor struct {
		dist  float64
		label string
	}
	ns := make([]neighbor, m.data.Len())
	for i, row := range m.data.X {
		var d float64
		n := len(row)
		if len(x) < n {
			n = len(x)
		}
		for j := 0; j < n; j++ {
			diff := row[j] - x[j]
			d += diff * diff
		}
		ns[i] = neighbor{dist: d, label: m.data.Labels[i]}
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a].dist < ns[b].dist })
	votes := make(map[string]int)
	weight := make(map[string]float64)
	for _, n := range ns[:m.k] {
		votes[n.label]++
		weight[n.label] += 1 / (n.dist + 1e-12)
	}
	best := ""
	for label := range votes {
		if best == "" {
			best = label
			continue
		}
		if votes[label] > votes[best] ||
			(votes[label] == votes[best] && weight[label] > weight[best]) ||
			(votes[label] == votes[best] && weight[label] == weight[best] && label < best) {
			best = label
		}
	}
	return best
}

// SplitTrainTest shuffles indices with rng and splits them so that testFrac
// of each class lands in the test set (stratified). testFrac must be in
// (0, 1).
func SplitTrainTest(d *Dataset, testFrac float64, rng *rand.Rand) (train, test *Dataset, err error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("classify: testFrac %v outside (0,1)", testFrac)
	}
	if rng == nil {
		return nil, nil, fmt.Errorf("classify: nil random source")
	}
	byClass := make(map[string][]int)
	for i, lab := range d.Labels {
		byClass[lab] = append(byClass[lab], i)
	}
	var trainIdx, testIdx []int
	classes := d.Classes()
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		nTest := int(math.Round(testFrac * float64(len(idx))))
		if nTest == 0 && len(idx) > 1 {
			nTest = 1
		}
		if nTest >= len(idx) {
			nTest = len(idx) - 1
		}
		testIdx = append(testIdx, idx[:nTest]...)
		trainIdx = append(trainIdx, idx[nTest:]...)
	}
	sort.Ints(trainIdx)
	sort.Ints(testIdx)
	return d.Subset(trainIdx), d.Subset(testIdx), nil
}
