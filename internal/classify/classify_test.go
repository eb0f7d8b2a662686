package classify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

func gaussianDataset(rng *rand.Rand, perClass int) *Dataset {
	d := &Dataset{}
	centers := map[string][2]float64{"a": {0, 0}, "b": {5, 0}, "c": {0, 5}}
	for _, name := range []string{"a", "b", "c"} {
		c := centers[name]
		for i := 0; i < perClass; i++ {
			d.Append([]float64{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5}, name)
		}
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{}
	if err := d.Validate(); err == nil {
		t.Error("empty dataset should fail validation")
	}
	d.Append([]float64{1, 2}, "a")
	d.Append([]float64{3, 4}, "b")
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	d.X = append(d.X, []float64{1}) // ragged, no label
	if err := d.Validate(); err == nil {
		t.Error("mismatched lengths should fail")
	}
	d.Labels = append(d.Labels, "c")
	if err := d.Validate(); err == nil {
		t.Error("ragged rows should fail")
	}
	nan := &Dataset{}
	nan.Append([]float64{math.NaN()}, "a")
	if err := nan.Validate(); err == nil {
		t.Error("NaN feature should fail")
	}
}

func TestDatasetAppendCopies(t *testing.T) {
	d := &Dataset{}
	row := []float64{1, 2}
	d.Append(row, "a")
	row[0] = 99
	if d.X[0][0] != 1 {
		t.Error("Append should copy the row")
	}
}

func TestDatasetClasses(t *testing.T) {
	d := &Dataset{}
	d.Append([]float64{1}, "b")
	d.Append([]float64{2}, "a")
	d.Append([]float64{3}, "b")
	got := d.Classes()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Classes = %v", got)
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Transform(x)
	// First dim standardised: mean 0.
	var mean0 float64
	for _, r := range out {
		mean0 += r[0]
	}
	if !mathx.AlmostEqual(mean0/3, 0, 1e-9) {
		t.Errorf("scaled mean = %v", mean0/3)
	}
	// Constant dim: centred, not exploded.
	for _, r := range out {
		if r[1] != 0 {
			t.Errorf("constant dim scaled to %v, want 0", r[1])
		}
	}
	// Unit variance for the varying dim.
	var v float64
	for _, r := range out {
		v += r[0] * r[0]
	}
	if !mathx.AlmostEqual(v/3, 1, 1e-9) {
		t.Errorf("scaled variance = %v", v/3)
	}
}

func TestScalerErrors(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged fit should error")
	}
}

func TestKNNBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := gaussianDataset(rng, 30)
	knn, err := NewKNN(5, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := knn.Predict([]float64{0, 0}); got != "a" {
		t.Errorf("Predict(center a) = %q", got)
	}
	if got := knn.Predict([]float64{5, 0}); got != "b" {
		t.Errorf("Predict(center b) = %q", got)
	}
	if got := knn.Predict([]float64{0, 5}); got != "c" {
		t.Errorf("Predict(center c) = %q", got)
	}
}

func TestKNNValidation(t *testing.T) {
	d := &Dataset{}
	d.Append([]float64{1}, "a")
	if _, err := NewKNN(0, d); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := NewKNN(2, d); err == nil {
		t.Error("k > len should error")
	}
	if _, err := NewKNN(1, &Dataset{}); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestSplitTrainTestStratified(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := gaussianDataset(rng, 20)
	train, test, err := SplitTrainTest(d, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != d.Len() {
		t.Errorf("split sizes %d+%d != %d", train.Len(), test.Len(), d.Len())
	}
	// Each class contributes ~25% to test.
	for _, c := range d.Classes() {
		count := 0
		for _, l := range test.Labels {
			if l == c {
				count++
			}
		}
		if count != 5 {
			t.Errorf("class %s has %d test samples, want 5", c, count)
		}
	}
}

func TestSplitTrainTestErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := gaussianDataset(rng, 5)
	if _, _, err := SplitTrainTest(d, 0, rng); err == nil {
		t.Error("testFrac 0 should error")
	}
	if _, _, err := SplitTrainTest(d, 1, rng); err == nil {
		t.Error("testFrac 1 should error")
	}
	if _, _, err := SplitTrainTest(d, 0.5, nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm, err := NewConfusionMatrix([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := cm.Add("a", "a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cm.Add("a", "b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cm.Add("b", "b"); err != nil {
			t.Fatal(err)
		}
	}
	if acc := cm.Accuracy(); !mathx.AlmostEqual(acc, 0.95, 1e-12) {
		t.Errorf("Accuracy = %v", acc)
	}
	if r, _ := cm.Rate("a", "b"); !mathx.AlmostEqual(r, 0.1, 1e-12) {
		t.Errorf("Rate(a,b) = %v", r)
	}
	if ca, _ := cm.ClassAccuracy("a"); !mathx.AlmostEqual(ca, 0.9, 1e-12) {
		t.Errorf("ClassAccuracy(a) = %v", ca)
	}
	if cm.Count("a", "a") != 9 || cm.Total() != 20 {
		t.Error("counts wrong")
	}
	if err := cm.Add("zz", "a"); err == nil {
		t.Error("unknown class should error")
	}
	if _, err := cm.ClassAccuracy("zz"); err == nil {
		t.Error("unknown class accuracy should error")
	}
	if s := cm.String(); len(s) == 0 {
		t.Error("String should render")
	}
}

func TestConfusionMatrixValidation(t *testing.T) {
	if _, err := NewConfusionMatrix(nil); err == nil {
		t.Error("no classes should error")
	}
	if _, err := NewConfusionMatrix([]string{"a", "a"}); err == nil {
		t.Error("duplicate classes should error")
	}
}

func TestConfusionMatrixEmptyAccuracy(t *testing.T) {
	cm, _ := NewConfusionMatrix([]string{"a"})
	if cm.Accuracy() != 0 {
		t.Error("empty matrix accuracy should be 0")
	}
	if ca, err := cm.ClassAccuracy("a"); err != nil || ca != 0 {
		t.Error("empty class accuracy should be 0")
	}
	if r, err := cm.Rate("a", "a"); err != nil || r != 0 {
		t.Error("empty rate should be 0")
	}
}
