package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csi"
	"repro/internal/mathx"
)

// SubcarrierVariances computes the per-subcarrier variance of the
// inter-antenna phase difference across the packets of a capture — Eq. 7 of
// the paper. Circular variance is used so wrap-around at ±π does not
// inflate the estimate.
func SubcarrierVariances(c *csi.Capture, pair AntennaPair) ([]float64, error) {
	return subcarrierVariancesInto(nil, c, pair)
}

// subcarrierVariancesInto is SubcarrierVariances writing into dst (grown as
// needed and returned): the one variance computation behind calibration,
// public selection and the pipeline's selection, so all three rank
// identical numbers.
func subcarrierVariancesInto(dst []float64, c *csi.Capture, pair AntennaPair) ([]float64, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("core: empty capture")
	}
	dst = growFloats(dst, csi.NumSubcarriers)
	for sub := range dst {
		v, err := phaseDiffVariance(c, pair, sub)
		if err != nil {
			return nil, fmt.Errorf("core: subcarrier %d: %w", sub, err)
		}
		dst[sub] = v
	}
	return dst, nil
}

// phaseDiffVariance is the circular variance 1 − |R|/n of the inter-antenna
// phase difference at one subcarrier, from the resultant R of the capture's
// n unit phasors (NaN for an empty capture).
func phaseDiffVariance(c *csi.Capture, pair AntennaPair, sub int) (float64, error) {
	x, y, err := c.PhaseDiffResultant(pair.A, pair.B, sub)
	if err != nil {
		return 0, err
	}
	return 1 - math.Hypot(x, y)/float64(c.Len()), nil
}

// meanPhaseDiff is the circular-mean inter-antenna phase difference at one
// subcarrier over a capture, the argument of its resultant — the ΔZ
// averaging of Eq. 6 ("removed by averaging it over a time window"). A
// resultant too short to define a direction, or a NaN one (a non-finite
// CSI value), is an error.
func meanPhaseDiff(c *csi.Capture, pair AntennaPair, sub int) (float64, error) {
	x, y, err := c.PhaseDiffResultant(pair.A, pair.B, sub)
	if err != nil {
		return 0, err
	}
	m := math.Atan2(y, x)
	if math.Hypot(x, y) < 1e-12 || m != m {
		return 0, fmt.Errorf("core: phase difference has no defined mean at subcarrier %d", sub)
	}
	return m, nil
}

// SelectGoodSubcarriers returns the p subcarrier indices with the smallest
// phase-difference variance (ascending variance order) — the selection
// scheme of Sec. III-B / Fig. 6.
func SelectGoodSubcarriers(c *csi.Capture, pair AntennaPair, p int) ([]int, error) {
	if p < 1 || p > csi.NumSubcarriers {
		return nil, fmt.Errorf("core: P=%d outside [1,%d]", p, csi.NumSubcarriers)
	}
	variances, err := SubcarrierVariances(c, pair)
	if err != nil {
		return nil, err
	}
	order := mathx.ArgSort(variances)
	out := append([]int(nil), order[:p]...)
	sort.Ints(out)
	return out, nil
}

// SelectGoodSubcarriersSession selects the p subcarriers with the smallest
// summed phase-difference variance over BOTH captures of a session. Using
// the whole session keeps the selection consistent between the baseline and
// target data (and, in a fixed room, across repeated trials), which the
// feature differencing of Eq. 18 relies on.
func SelectGoodSubcarriersSession(s *csi.Session, pair AntennaPair, p int) ([]int, error) {
	if p < 1 || p > csi.NumSubcarriers {
		return nil, fmt.Errorf("core: P=%d outside [1,%d]", p, csi.NumSubcarriers)
	}
	vb, err := SubcarrierVariances(&s.Baseline, pair)
	if err != nil {
		return nil, fmt.Errorf("core: baseline variances: %w", err)
	}
	vt, err := SubcarrierVariances(&s.Target, pair)
	if err != nil {
		return nil, fmt.Errorf("core: target variances: %w", err)
	}
	combined := make([]float64, len(vb))
	for i := range combined {
		combined[i] = vb[i] + vt[i]
	}
	order := mathx.ArgSort(combined)
	out := append([]int(nil), order[:p]...)
	sort.Ints(out)
	return out, nil
}

// CalibrateSubcarriers selects the p lowest-variance subcarriers by
// aggregating phase-difference variance over MANY sessions of one room —
// the per-environment calibration the paper implies when it reports fixed
// picks ("subcarrier 5, 20, 23, 24 are selected"). A consensus set shared
// by every measurement removes the trial-to-trial feature jitter that
// per-session selection would introduce.
func CalibrateSubcarriers(sessions []*csi.Session, pair AntennaPair, p int) ([]int, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("core: no sessions to calibrate on")
	}
	if p < 1 || p > csi.NumSubcarriers {
		return nil, fmt.Errorf("core: P=%d outside [1,%d]", p, csi.NumSubcarriers)
	}
	total := make([]float64, csi.NumSubcarriers)
	for i, s := range sessions {
		for _, c := range []*csi.Capture{&s.Baseline, &s.Target} {
			v, err := SubcarrierVariances(c, pair)
			if err != nil {
				return nil, fmt.Errorf("core: session %d: %w", i, err)
			}
			for sub := range total {
				total[sub] += v[sub]
			}
		}
	}
	order := mathx.ArgSort(total)
	out := append([]int(nil), order[:p]...)
	sort.Ints(out)
	return out, nil
}

// CalibrationReport quantifies each stage of the phase-calibration cascade
// for one capture — the numbers behind Figs. 2 and 12: raw phase spread
// (expected ≈ full circle), inter-antenna phase-difference spread
// (expected ≈ 18°) and the spread at the best 'good' subcarrier
// (expected ≈ 5°).
type CalibrationReport struct {
	// RawSpreadDeg is the angular spread of the raw phase at a reference
	// subcarrier across packets.
	RawSpreadDeg float64
	// DiffSpreadDeg is the spread of the inter-antenna phase difference at
	// the same subcarrier.
	DiffSpreadDeg float64
	// GoodSpreadDeg is the spread of the phase difference at the selected
	// best subcarrier.
	GoodSpreadDeg float64
	// GoodSubcarriers are the selected subcarrier indices.
	GoodSubcarriers []int
}

// Calibrate runs the full phase-calibration cascade on a capture and
// reports the spread at each stage. refSub is the subcarrier used for the
// raw and difference stages (the paper plots one subcarrier; any index
// works).
func Calibrate(c *csi.Capture, pair AntennaPair, refSub, p int) (*CalibrationReport, error) {
	if refSub < 0 || refSub >= csi.NumSubcarriers {
		return nil, fmt.Errorf("core: reference subcarrier %d out of range", refSub)
	}
	raw, err := c.PhaseSeries(pair.A, refSub)
	if err != nil {
		return nil, fmt.Errorf("core: raw phase: %w", err)
	}
	diff, err := c.PhaseDiffSeries(pair.A, pair.B, refSub)
	if err != nil {
		return nil, fmt.Errorf("core: phase difference: %w", err)
	}
	good, err := SelectGoodSubcarriers(c, pair, p)
	if err != nil {
		return nil, err
	}
	// The best subcarrier is the lowest-variance one among the selected.
	variances, err := SubcarrierVariances(c, pair)
	if err != nil {
		return nil, err
	}
	best := good[0]
	for _, s := range good[1:] {
		if variances[s] < variances[best] {
			best = s
		}
	}
	bestSeries, err := c.PhaseDiffSeries(pair.A, pair.B, best)
	if err != nil {
		return nil, fmt.Errorf("core: best subcarrier series: %w", err)
	}
	return &CalibrationReport{
		RawSpreadDeg:    mathx.AngularSpreadDeg(raw),
		DiffSpreadDeg:   mathx.AngularSpreadDeg(diff),
		GoodSpreadDeg:   mathx.AngularSpreadDeg(bestSeries),
		GoodSubcarriers: good,
	}, nil
}
