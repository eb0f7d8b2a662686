package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"single", []float64{5}, 5},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-2, 2, -4, 4}, 0},
		{"constant", []float64{7, 7, 7}, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !AlmostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestVariance(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"constant is zero", []float64{3, 3, 3, 3}, 0},
		{"simple", []float64{1, 2, 3, 4}, 1.25},
		{"two points", []float64{0, 2}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Variance(tt.in); !AlmostEqual(got, tt.want, 1e-12) {
				t.Errorf("Variance(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"single", []float64{9}, 9},
		{"duplicates", []float64{5, 5, 1}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Median(tt.in); got != tt.want {
				t.Errorf("Median(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestMAD(t *testing.T) {
	// median = 2, deviations = {1,0,1}, MAD = 1
	if got := MAD([]float64{1, 2, 3}); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
	// Constant data has zero spread.
	if got := MAD([]float64{4, 4, 4}); got != 0 {
		t.Errorf("MAD of constants = %v, want 0", got)
	}
}

func TestMADStdDevGaussianConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 2.5
	}
	_, got := MedianAndMADStdDev(xs)
	if math.Abs(got-2.5) > 0.1 {
		t.Errorf("MAD-based σ of N(0, 2.5²) = %v, want ≈2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !AlmostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(xs, -1)) || !math.IsNaN(Percentile(xs, 101)) {
		t.Error("Percentile outside [0,100] should be NaN")
	}
}

func TestMinMaxArg(t *testing.T) {
	xs := []float64{3, -1, 4, -1, 5}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if got := ArgMax(xs); got != 4 {
		t.Errorf("ArgMax = %v", got)
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax of empty should be -1")
	}
}

func TestArgSort(t *testing.T) {
	xs := []float64{3, 1, 2}
	got := ArgSort(xs)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgSort = %v, want %v", got, want)
		}
	}
	// Stability on ties.
	ties := []float64{1, 0, 1, 0}
	gt := ArgSort(ties)
	if gt[0] != 1 || gt[1] != 3 || gt[2] != 0 || gt[3] != 2 {
		t.Errorf("ArgSort ties = %v, want [1 3 0 2]", gt)
	}
	// NaN: a 30-vector (ties, both zeros and both infinities included)
	// with one NaN at each index, then with several. Both functions must
	// give the numbers' stable order followed by the NaNs in index order.
	rng := rand.New(rand.NewSource(7))
	base := make([]float64, 30)
	for i := range base {
		base[i] = float64(rng.Intn(12)) - 6
	}
	base[3], base[11], base[17], base[23] = math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0
	var inputs [][]float64
	for i := range base {
		xs := append([]float64(nil), base...)
		xs[i] = math.NaN()
		inputs = append(inputs, xs)
	}
	several := append([]float64(nil), base...)
	for _, i := range []int{0, 4, 5, 16, 29} {
		several[i] = math.NaN()
	}
	inputs = append(inputs, several)
	for _, xs := range inputs {
		var want, nans []int
		for i, x := range xs {
			if math.IsNaN(x) {
				nans = append(nans, i)
			} else {
				want = append(want, i)
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return xs[want[a]] < xs[want[b]] })
		want = append(want, nans...)
		for name, got := range map[string][]int{"ArgSort": ArgSort(xs), "ArgSortBuf": ArgSortBuf(xs, nil)} {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s(%v) = %v, want %v", name, xs, got, want)
				}
			}
		}
	}
}

func TestPower(t *testing.T) {
	if got := Power([]float64{1, -1, 1, -1}); got != 1 {
		t.Errorf("Power = %v", got)
	}
	if !math.IsNaN(Power(nil)) {
		t.Error("Power(nil) should be NaN")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

// Property: variance is non-negative and invariant to adding a constant.
func TestVarianceProperties(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		shift := math.Mod(shiftRaw, 1e3)
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			shift = 0
		}
		v := Variance(xs)
		if v < 0 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		// Tolerance scales with magnitude of the data.
		tol := 1e-6 * (1 + math.Abs(shift)) * (1 + math.Max(math.Abs(Min(xs)), math.Abs(Max(xs))))
		return math.Abs(Variance(shifted)-v) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: median lies within [min, max].
func TestMedianBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		return m >= Min(xs) && m <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				t.Fatalf("Percentile not monotone at p=%v: %v < %v", p, v, prev)
			}
			prev = v
		}
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1+1e-13, 1e-9) {
		t.Error("nearby values should compare equal")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Error("distant values should not compare equal")
	}
	if AlmostEqual(math.NaN(), math.NaN(), 1) {
		t.Error("NaN never equals NaN")
	}
	if !AlmostEqual(math.Inf(1), math.Inf(1), 1e-9) {
		t.Error("equal infinities compare equal")
	}
	// Relative tolerance path for large magnitudes.
	if !AlmostEqual(1e12, 1e12+1, 1e-9) {
		t.Error("relative tolerance should apply at large magnitude")
	}
}

// sortMedian is the O(n log n) reference definition the quickselect Median
// must reproduce exactly.
func sortMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return tmp[n/2-1]/2 + tmp[n/2]/2
}

// sameFloat is == that also equates two NaNs.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// medianShapes returns the input shapes the selection kernel must get
// exactly right at length n: random, all-equal, two-valued, sorted,
// reversed, organ-pipe, mixed signed zeros, with infinities, and with NaNs.
func medianShapes(rng *rand.Rand, n int) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	return map[string][]float64{
		"normal":     gen(func(int) float64 { return rng.NormFloat64() * 100 }),
		"all-equal":  gen(func(int) float64 { return 3.5 }),
		"two-valued": gen(func(int) float64 { return float64(rng.Intn(2)) }),
		"sorted":     gen(func(i int) float64 { return float64(i) }),
		"reversed":   gen(func(i int) float64 { return float64(n - i) }),
		"organ-pipe": gen(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"signed-zeros": gen(func(int) float64 {
			return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
		}),
		"infinities": gen(func(int) float64 {
			if rng.Intn(4) == 0 {
				return math.Inf(1 - 2*rng.Intn(2))
			}
			return rng.NormFloat64()
		}),
		"nan": gen(func(int) float64 {
			if rng.Intn(5) == 0 {
				return math.NaN()
			}
			return rng.NormFloat64()
		}),
	}
}

// checkMedianFamily compares every median entry point on xs against the
// sort.Float64s reference, bit for bit up to the sign of zero and NaN
// payloads, and checks xs is left untouched.
func checkMedianFamily(t *testing.T, name string, xs []float64) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	want := sortMedian(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - want)
	}
	wantSig := sortMedian(dev) / 0.6745
	if got := Median(xs); !sameFloat(got, want) {
		t.Fatalf("%s n=%d: Median = %v, sort reference %v", name, len(xs), got, want)
	}
	if got, _ := MedianBuf(xs, make([]float64, 3)); !sameFloat(got, want) {
		t.Fatalf("%s n=%d: MedianBuf = %v, sort reference %v", name, len(xs), got, want)
	}
	if med, sig := MedianAndMADStdDev(xs); !sameFloat(med, want) || !sameFloat(sig, wantSig) {
		t.Fatalf("%s n=%d: MedianAndMADStdDev = (%v, %v), sort reference (%v, %v)", name, len(xs), med, sig, want, wantSig)
	}
	if med, sig, _ := MedianAndMADStdDevBuf(xs, nil); !sameFloat(med, want) || !sameFloat(sig, wantSig) {
		t.Fatalf("%s n=%d: MedianAndMADStdDevBuf = (%v, %v), sort reference (%v, %v)", name, len(xs), med, sig, want, wantSig)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s n=%d: input mutated at %d", name, len(xs), i)
		}
	}
}

func TestMedianMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{1000}
	for n := 1; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for name, xs := range medianShapes(rng, n) {
			checkMedianFamily(t, name, xs)
		}
	}
}

// FuzzMedian checks the median family against the sort reference on
// arbitrary float64 bit patterns, eight bytes per element.
func FuzzMedian(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 7, 16, 17, 64, 101} {
		for _, xs := range medianShapes(rng, n) {
			buf := make([]byte, 0, 8*n)
			for _, x := range xs {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
			f.Add(buf)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkMedianFamily(t, "fuzz", xs)
	})
}

func TestMedianWithNaNsMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(4) == 0 {
				xs[i] = math.NaN()
			} else {
				xs[i] = rng.NormFloat64()
			}
		}
		got, want := Median(xs), sortMedian(xs)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: Median(%v) = %v, sort reference %v", trial, xs, got, want)
		}
	}
}

// TestMedianInvariantToArrangement pins the median as a function of its
// input multiset: shuffling an input never changes a bit of its median,
// even for signed-zero-heavy inputs on which a run of poor pivots sends the
// selection to its sorting fallback.
func TestMedianInvariantToArrangement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []float64{math.Copysign(0, -1), 0, -1, 1}
	for trial := 0; trial < 50000; trial++ {
		xs := make([]float64, 2*(1+rng.Intn(16)))
		for i := range xs {
			xs[i] = values[rng.Intn(len(values))]
		}
		want := Median(xs)
		for s := 0; s < 4; s++ {
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			if got := Median(xs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: median of %v is %v, of another arrangement %v", trial, xs, got, want)
			}
		}
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	Median(xs)
	for i, want := range []float64{5, 1, 4, 2, 3} {
		if xs[i] != want {
			t.Fatalf("Median mutated its input: %v", xs)
		}
	}
}

// BenchmarkMedian times MedianBuf on 100-element inputs. The distinct case
// rotates over many different random slices, so the branch predictor
// cannot learn one input's comparison outcomes the way it does when the
// same slice repeats; the all-equal and two-valued cases time duplicate
// runs.
func BenchmarkMedian(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n, distinct = 100, 512
	inputs := map[string][][]float64{}
	for i := 0; i < distinct; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = rng.NormFloat64()
		}
		inputs["distinct"] = append(inputs["distinct"], xs)
	}
	equal := make([]float64, n)
	for j := range equal {
		equal[j] = 1.25
	}
	inputs["all-equal"] = [][]float64{equal}
	for i := 0; i < distinct; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = float64(rng.Intn(2))
		}
		inputs["two-valued"] = append(inputs["two-valued"], xs)
	}
	for _, name := range []string{"distinct", "all-equal", "two-valued"} {
		set := inputs[name]
		b.Run(name, func(b *testing.B) {
			buf := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, buf = MedianBuf(set[i%len(set)], buf)
			}
		})
	}
}

func TestMedianAndMADStdDevMatchesSeparateCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var buf []float64
	for trial := 0; trial < 100; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		wantMed, wantSig := Median(xs), MAD(xs)/0.6745
		if med, sig := MedianAndMADStdDev(xs); med != wantMed || sig != wantSig {
			t.Fatalf("MedianAndMADStdDev = (%v, %v), want (%v, %v)", med, sig, wantMed, wantSig)
		}
		var med, sig float64
		med, sig, buf = MedianAndMADStdDevBuf(xs, buf)
		if med != wantMed || sig != wantSig {
			t.Fatalf("MedianAndMADStdDevBuf = (%v, %v), want (%v, %v)", med, sig, wantMed, wantSig)
		}
	}
	if med, sig, _ := MedianAndMADStdDevBuf(nil, buf); !math.IsNaN(med) || !math.IsNaN(sig) {
		t.Fatalf("empty input should give NaNs, got (%v, %v)", med, sig)
	}
}
