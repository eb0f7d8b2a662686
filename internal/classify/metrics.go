package classify

import (
	"fmt"
	"strings"
)

// ConfusionMatrix counts predictions per (true class, predicted class) —
// the structure of the paper's Figs. 15 and 16.
type ConfusionMatrix struct {
	classes []string
	index   map[string]int
	counts  [][]int
	total   int
}

// NewConfusionMatrix prepares a matrix over the given classes (order is
// preserved for display). Predictions involving unknown classes are
// rejected by Add.
func NewConfusionMatrix(classes []string) (*ConfusionMatrix, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("classify: confusion matrix needs classes")
	}
	cm := &ConfusionMatrix{
		classes: append([]string(nil), classes...),
		index:   make(map[string]int, len(classes)),
	}
	for i, c := range classes {
		if _, dup := cm.index[c]; dup {
			return nil, fmt.Errorf("classify: duplicate class %q", c)
		}
		cm.index[c] = i
	}
	cm.counts = make([][]int, len(classes))
	for i := range cm.counts {
		cm.counts[i] = make([]int, len(classes))
	}
	return cm, nil
}

// Add records one (truth, predicted) observation.
func (cm *ConfusionMatrix) Add(truth, predicted string) error {
	ti, ok := cm.index[truth]
	if !ok {
		return fmt.Errorf("classify: unknown true class %q", truth)
	}
	pi, ok := cm.index[predicted]
	if !ok {
		return fmt.Errorf("classify: unknown predicted class %q", predicted)
	}
	cm.counts[ti][pi]++
	cm.total++
	return nil
}

// Accuracy returns the overall fraction of correct predictions (NaN-free:
// zero observations give 0).
func (cm *ConfusionMatrix) Accuracy() float64 {
	if cm.total == 0 {
		return 0
	}
	correct := 0
	for i := range cm.classes {
		correct += cm.counts[i][i]
	}
	return float64(correct) / float64(cm.total)
}

// ClassAccuracy returns the per-class recall (diagonal / row sum), the
// quantity on the diagonal of the paper's confusion figures.
func (cm *ConfusionMatrix) ClassAccuracy(class string) (float64, error) {
	i, ok := cm.index[class]
	if !ok {
		return 0, fmt.Errorf("classify: unknown class %q", class)
	}
	row := 0
	for _, c := range cm.counts[i] {
		row += c
	}
	if row == 0 {
		return 0, nil
	}
	return float64(cm.counts[i][i]) / float64(row), nil
}

// Rate returns the normalised entry P(predicted | truth).
func (cm *ConfusionMatrix) Rate(truth, predicted string) (float64, error) {
	ti, ok := cm.index[truth]
	if !ok {
		return 0, fmt.Errorf("classify: unknown true class %q", truth)
	}
	pi, ok := cm.index[predicted]
	if !ok {
		return 0, fmt.Errorf("classify: unknown predicted class %q", predicted)
	}
	row := 0
	for _, c := range cm.counts[ti] {
		row += c
	}
	if row == 0 {
		return 0, nil
	}
	return float64(cm.counts[ti][pi]) / float64(row), nil
}

// Classes returns the class order of the matrix.
func (cm *ConfusionMatrix) Classes() []string {
	return append([]string(nil), cm.classes...)
}

// Count returns the raw count for (truth, predicted), 0 for unknown names.
func (cm *ConfusionMatrix) Count(truth, predicted string) int {
	ti, ok := cm.index[truth]
	if !ok {
		return 0
	}
	pi, ok := cm.index[predicted]
	if !ok {
		return 0
	}
	return cm.counts[ti][pi]
}

// Total returns the number of observations recorded.
func (cm *ConfusionMatrix) Total() int { return cm.total }

// String renders the row-normalised matrix like the paper's figures.
func (cm *ConfusionMatrix) String() string {
	var b strings.Builder
	width := 6
	for _, c := range cm.classes {
		if len(c) > width {
			width = len(c)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "")
	for _, c := range cm.classes {
		fmt.Fprintf(&b, "%*s", width+2, c)
	}
	b.WriteByte('\n')
	for _, truth := range cm.classes {
		fmt.Fprintf(&b, "%-*s", width+2, truth)
		for _, pred := range cm.classes {
			r, err := cm.Rate(truth, pred)
			if err != nil {
				// Classes come from the matrix itself; this cannot happen.
				r = 0
			}
			if r == 0 {
				fmt.Fprintf(&b, "%*s", width+2, ".")
			} else {
				fmt.Fprintf(&b, "%*.2f", width+2, r)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "overall accuracy: %.1f%% (%d samples)\n", 100*cm.Accuracy(), cm.total)
	return b.String()
}
