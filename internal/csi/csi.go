// Package csi defines the channel-state-information data model the rest of
// WiMi consumes: per-packet complex CSI matrices shaped like the Intel 5300
// NIC's CSI Tool export (reference [20] of the paper) — one transmit
// stream, up to three receive antennas, 30 grouped subcarriers of a 20 MHz
// 802.11n channel.
package csi

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"
)

// NumSubcarriers is the number of subcarriers the Intel 5300 reports for a
// 20 MHz channel (a grouped subset of the 56 data/pilot subcarriers).
const NumSubcarriers = 30

// SubcarrierSpacing is the 802.11n OFDM subcarrier spacing in Hz.
const SubcarrierSpacing = 312.5e3

// intel5300Indices are the 802.11n subcarrier indices (of the -28..28 grid)
// the 5300's grouping reports, per the CSI Tool documentation.
var intel5300Indices = [NumSubcarriers]int{
	-28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1,
	1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 28,
}

// SubcarrierIndex returns the 802.11n grid index of reported subcarrier k
// (0 ≤ k < NumSubcarriers).
func SubcarrierIndex(k int) (int, error) {
	if k < 0 || k >= NumSubcarriers {
		return 0, fmt.Errorf("csi: subcarrier %d out of range [0,%d)", k, NumSubcarriers)
	}
	return intel5300Indices[k], nil
}

// SubcarrierFreq returns the absolute RF frequency of reported subcarrier k
// for a channel centred at carrier Hz.
func SubcarrierFreq(carrier float64, k int) (float64, error) {
	idx, err := SubcarrierIndex(k)
	if err != nil {
		return 0, err
	}
	return carrier + float64(idx)*SubcarrierSpacing, nil
}

// Matrix is the CSI of one received packet: Values[ant][sub] is the complex
// channel response at receive antenna ant and reported subcarrier sub.
// (One transmit stream, as in the paper's router→laptop setup.)
type Matrix struct {
	Values [][]complex128
}

// NewMatrix allocates a zeroed CSI matrix for numAnt antennas. All rows
// share one backing array: a capture holds thousands of matrices, and the
// flat layout costs two heap objects instead of numAnt+1.
func NewMatrix(numAnt int) (*Matrix, error) {
	if numAnt < 1 {
		return nil, fmt.Errorf("csi: need at least one antenna, got %d", numAnt)
	}
	backing := make([]complex128, numAnt*NumSubcarriers)
	vals := make([][]complex128, numAnt)
	for i := range vals {
		vals[i] = backing[i*NumSubcarriers : (i+1)*NumSubcarriers : (i+1)*NumSubcarriers]
	}
	return &Matrix{Values: vals}, nil
}

// NumAntennas returns the number of receive antennas in the matrix.
func (m *Matrix) NumAntennas() int { return len(m.Values) }

// At returns the complex CSI at antenna ant, subcarrier sub.
func (m *Matrix) At(ant, sub int) (complex128, error) {
	if ant < 0 || ant >= len(m.Values) {
		return 0, fmt.Errorf("csi: antenna %d out of range [0,%d)", ant, len(m.Values))
	}
	if sub < 0 || sub >= NumSubcarriers {
		return 0, fmt.Errorf("csi: subcarrier %d out of range [0,%d)", sub, NumSubcarriers)
	}
	return m.Values[ant][sub], nil
}

// Amplitude returns |H| at antenna ant, subcarrier sub.
func (m *Matrix) Amplitude(ant, sub int) (float64, error) {
	v, err := m.At(ant, sub)
	if err != nil {
		return 0, err
	}
	return cmplx.Abs(v), nil
}

// Phase returns ∠H in radians at antenna ant, subcarrier sub.
func (m *Matrix) Phase(ant, sub int) (float64, error) {
	v, err := m.At(ant, sub)
	if err != nil {
		return 0, err
	}
	return cmplx.Phase(v), nil
}

// PhaseDiff returns the inter-antenna phase difference
// ∠H[antA][sub] − ∠H[antB][sub] wrapped to [-π, π) — the quantity phase
// calibration is built on (paper Eq. 6).
func (m *Matrix) PhaseDiff(antA, antB, sub int) (float64, error) {
	a, err := m.At(antA, sub)
	if err != nil {
		return 0, err
	}
	b, err := m.At(antB, sub)
	if err != nil {
		return 0, err
	}
	d := cmplx.Phase(a) - cmplx.Phase(b)
	// Wrap to [-π, π).
	for d >= math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return d, nil
}

// AmplitudeRatio returns |H[antA][sub]| / |H[antB][sub]| — the stable
// amplitude quantity of Sec. III-C. A zero denominator is an error.
func (m *Matrix) AmplitudeRatio(antA, antB, sub int) (float64, error) {
	a, err := m.Amplitude(antA, sub)
	if err != nil {
		return 0, err
	}
	b, err := m.Amplitude(antB, sub)
	if err != nil {
		return 0, err
	}
	if b == 0 {
		return 0, fmt.Errorf("csi: zero amplitude at antenna %d subcarrier %d", antB, sub)
	}
	return a / b, nil
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	vals := make([][]complex128, len(m.Values))
	for i, row := range m.Values {
		vals[i] = append([]complex128(nil), row...)
	}
	return &Matrix{Values: vals}
}

// NewMatrixSlab allocates n zeroed CSI matrices for numAnt antennas whose
// rows all slice ONE shared backing array — three heap objects for a whole
// capture instead of two per packet. The matrices are independent views:
// writing one never touches another.
func NewMatrixSlab(numAnt, n int) ([]Matrix, error) {
	if numAnt < 1 {
		return nil, fmt.Errorf("csi: need at least one antenna, got %d", numAnt)
	}
	if n < 0 {
		return nil, fmt.Errorf("csi: negative matrix count %d", n)
	}
	backing := make([]complex128, n*numAnt*NumSubcarriers)
	rows := make([][]complex128, n*numAnt)
	for i := range rows {
		rows[i] = backing[i*NumSubcarriers : (i+1)*NumSubcarriers : (i+1)*NumSubcarriers]
	}
	mats := make([]Matrix, n)
	for i := range mats {
		mats[i].Values = rows[i*numAnt : (i+1)*numAnt : (i+1)*numAnt]
	}
	return mats, nil
}

// MatrixArena hands out CSI matrices carved from large reusable slabs — the
// allocation discipline of the serving decode path, where a request's whole
// session is decoded, identified and discarded. Reset recycles every slab
// for the next request, so a warmed arena allocates nothing in steady state.
//
// Matrices obtained from an arena are valid only until Reset; an arena is
// not safe for concurrent use.
type MatrixArena struct {
	vals    []complex128   // current value slab
	valOff  int            // used prefix of vals
	rows    [][]complex128 // current row-header slab
	rowOff  int
	mats    []Matrix // current matrix-header slab
	matOff  int
	retired [][]complex128 // full value slabs kept alive until Reset
}

// arenaMinMatrices sizes fresh arena slabs: enough for a typical two-capture
// session (2 × 20 packets) before any growth.
const arenaMinMatrices = 48

// NewMatrix returns a zeroed matrix carved from the arena, equivalent to
// the package-level NewMatrix but amortised across the arena's slab.
func (a *MatrixArena) NewMatrix(numAnt int) (*Matrix, error) {
	if numAnt < 1 {
		return nil, fmt.Errorf("csi: need at least one antenna, got %d", numAnt)
	}
	need := numAnt * NumSubcarriers
	if len(a.vals)-a.valOff < need {
		// The exhausted slab stays referenced by earlier matrices; keep it
		// for the next Reset so the arena converges on zero allocation.
		if a.vals != nil {
			a.retired = append(a.retired, a.vals)
		}
		size := 2 * len(a.vals)
		if min := arenaMinMatrices * need; size < min {
			size = min
		}
		a.vals = make([]complex128, size)
		a.valOff = 0
	}
	vals := a.vals[a.valOff : a.valOff+need]
	for i := range vals {
		vals[i] = 0
	}
	a.valOff += need
	if len(a.rows)-a.rowOff < numAnt {
		size := 2 * len(a.rows)
		if min := arenaMinMatrices * numAnt; size < min {
			size = min
		}
		a.rows = make([][]complex128, size)
		a.rowOff = 0
	}
	rows := a.rows[a.rowOff : a.rowOff+numAnt : a.rowOff+numAnt]
	a.rowOff += numAnt
	for i := range rows {
		rows[i] = vals[i*NumSubcarriers : (i+1)*NumSubcarriers : (i+1)*NumSubcarriers]
	}
	if a.matOff == len(a.mats) {
		size := 2 * len(a.mats)
		if size < arenaMinMatrices {
			size = arenaMinMatrices
		}
		a.mats = make([]Matrix, size)
		a.matOff = 0
	}
	m := &a.mats[a.matOff]
	a.matOff++
	m.Values = rows
	return m, nil
}

// Reset recycles the arena's slabs. Every matrix previously handed out
// becomes invalid: the caller must be done with them (and everything
// derived from their storage) before resetting.
func (a *MatrixArena) Reset() {
	// Keep only the largest value slab: growth doubles, so after one warm-up
	// request the single surviving slab fits the whole workload.
	for _, s := range a.retired {
		if len(s) > len(a.vals) {
			a.vals = s
		}
	}
	a.retired = a.retired[:0]
	a.valOff, a.rowOff, a.matOff = 0, 0, 0
	// Drop row references into the old slab so stale matrices cannot pin it.
	for i := range a.rows {
		a.rows[i] = nil
	}
	for i := range a.mats {
		a.mats[i].Values = nil
	}
}

// Packet is one received CSI measurement.
type Packet struct {
	// Seq is the packet sequence number within its capture.
	Seq uint32
	// Timestamp is the receive time.
	Timestamp time.Time
	// Carrier is the channel centre frequency in Hz.
	Carrier float64
	// CSI is the measured channel matrix.
	CSI *Matrix
}

// Capture is an ordered series of packets from one measurement episode
// (e.g. "baseline, no target" or "target present").
type Capture struct {
	Packets []Packet
}

// Len returns the number of packets in the capture.
func (c *Capture) Len() int { return len(c.Packets) }

// NumAntennas returns the antenna count of the first packet, or 0 for an
// empty capture.
func (c *Capture) NumAntennas() int {
	if len(c.Packets) == 0 {
		return 0
	}
	return c.Packets[0].CSI.NumAntennas()
}

// The series extractors below are the inner loop of calibration and
// subcarrier selection: they run once per (antenna pair, subcarrier) per
// capture, every trial. Each keeps a fast path that indexes Values directly after a cheap
// combined bounds test; anything unusual (out-of-range argument, zero
// denominator) falls back to the checked per-packet accessor so error text
// and semantics stay identical to calling it in a loop.

// PhaseDiffSeries extracts the per-packet inter-antenna phase difference at
// one subcarrier across the whole capture.
func (c *Capture) PhaseDiffSeries(antA, antB, sub int) ([]float64, error) {
	out := make([]float64, len(c.Packets))
	for i := range c.Packets {
		v := c.Packets[i].CSI.Values
		if uint(antA) >= uint(len(v)) || uint(antB) >= uint(len(v)) || uint(sub) >= NumSubcarriers {
			d, err := c.Packets[i].CSI.PhaseDiff(antA, antB, sub)
			if err != nil {
				return nil, fmt.Errorf("csi: packet %d: %w", i, err)
			}
			out[i] = d
			continue
		}
		// ∠a − ∠b = ∠(a·conj(b)) up to float round-off: one atan2 instead of
		// two, and Phase already lands in (-π, π] so only the π endpoint
		// needs folding to keep the documented [-π, π) range.
		d := cmplx.Phase(v[antA][sub] * cmplx.Conj(v[antB][sub]))
		if d >= math.Pi {
			d = -math.Pi
		}
		out[i] = d
	}
	return out, nil
}

// PhaseDiffResultant sums, over the capture, the unit phasors of the
// per-packet inter-antenna product z = a·conj(b) at one subcarrier — the
// resultant R whose argument is the circular mean of the phase difference
// and whose length gives its circular variance 1 − |R|/n (Eqs. 6-7). Each
// packet's term is PhaseDiffPhasor's. Errors match PhaseDiffSeries's.
func (c *Capture) PhaseDiffResultant(antA, antB, sub int) (x, y float64, err error) {
	for i := range c.Packets {
		v := c.Packets[i].CSI.Values
		if uint(antA) >= uint(len(v)) || uint(antB) >= uint(len(v)) || uint(sub) >= NumSubcarriers {
			_, err := c.Packets[i].CSI.PhaseDiff(antA, antB, sub)
			return 0, 0, fmt.Errorf("csi: packet %d: %w", i, err)
		}
		px, py := PhaseDiffPhasor(v[antA][sub], v[antB][sub])
		x += px
		y += py
	}
	return x, y, nil
}

// PhaseDiffPhasor returns the unit phasor of z = a·conj(b), whose angle is
// the phase difference ∠a − ∠b: z is formed exactly as PhaseDiffSeries
// forms it, and its phasor is z/|z|, one Hypot instead of the atan2 and
// Sincos of a round trip through the angle. A zero product keeps the angle
// path's phasor: atan2(±0, +0) is ±0, whose phasor is (1, ±0), and
// atan2(±0, −0) is ±π, folded to −π. A non-finite product (a non-finite CSI
// value, or an overflow) has no phasor: the result is NaN.
func PhaseDiffPhasor(a, b complex128) (x, y float64) {
	z := a * cmplx.Conj(b)
	re, im := real(z), imag(z)
	if h := math.Hypot(re, im); h != 0 {
		return re / h, im / h
	}
	if math.Signbit(re) {
		return negPiCos, negPiSin
	}
	return 1, im
}

// negPiSin and negPiCos are the phasor of the angle −π.
var negPiSin, negPiCos = math.Sincos(-math.Pi)

// AmplitudeSeries extracts per-packet |H| at one antenna and subcarrier.
func (c *Capture) AmplitudeSeries(ant, sub int) ([]float64, error) {
	out := make([]float64, len(c.Packets))
	for i := range c.Packets {
		v := c.Packets[i].CSI.Values
		if uint(ant) >= uint(len(v)) || uint(sub) >= NumSubcarriers {
			a, err := c.Packets[i].CSI.Amplitude(ant, sub)
			if err != nil {
				return nil, fmt.Errorf("csi: packet %d: %w", i, err)
			}
			out[i] = a
			continue
		}
		out[i] = cmplx.Abs(v[ant][sub])
	}
	return out, nil
}

// AmplitudeRatioSeries extracts the per-packet inter-antenna amplitude ratio
// at one subcarrier.
func (c *Capture) AmplitudeRatioSeries(antA, antB, sub int) ([]float64, error) {
	out := make([]float64, len(c.Packets))
	for i := range c.Packets {
		v := c.Packets[i].CSI.Values
		var a, b float64
		if uint(antA) < uint(len(v)) && uint(antB) < uint(len(v)) && uint(sub) < NumSubcarriers {
			a = cmplx.Abs(v[antA][sub])
			b = cmplx.Abs(v[antB][sub])
		}
		if b == 0 {
			// Out-of-range argument or genuine zero amplitude: take the
			// checked path for its error reporting.
			r, err := c.Packets[i].CSI.AmplitudeRatio(antA, antB, sub)
			if err != nil {
				return nil, fmt.Errorf("csi: packet %d: %w", i, err)
			}
			out[i] = r
			continue
		}
		out[i] = a / b
	}
	return out, nil
}

// PhaseSeries extracts per-packet raw phase at one antenna and subcarrier
// (the noisy quantity of Fig. 2).
func (c *Capture) PhaseSeries(ant, sub int) ([]float64, error) {
	out := make([]float64, len(c.Packets))
	for i := range c.Packets {
		v := c.Packets[i].CSI.Values
		if uint(ant) >= uint(len(v)) || uint(sub) >= NumSubcarriers {
			p, err := c.Packets[i].CSI.Phase(ant, sub)
			if err != nil {
				return nil, fmt.Errorf("csi: packet %d: %w", i, err)
			}
			out[i] = p
			continue
		}
		out[i] = cmplx.Phase(v[ant][sub])
	}
	return out, nil
}

// Session pairs the two captures the identification pipeline needs: the
// baseline (empty container on the LoS) and the measurement with the target
// liquid present (paper Sec. IV: "we first extract a set ... as the baseline
// data").
type Session struct {
	// Carrier is the channel centre frequency in Hz.
	Carrier float64
	// Baseline holds CSI with no target liquid (empty container).
	Baseline Capture
	// Target holds CSI with the liquid in place.
	Target Capture

	// ring/block tie a PacketRing-emitted session to the refcounted block
	// its target window aliases; Release hands both back. Nil for plain
	// sessions, for which Release is a no-op.
	ring  *PacketRing
	block *packetBlock
}

// CheckCarrier reports why hz cannot be a carrier frequency, or nil when it
// is finite and positive. NaN and +Inf fail like zero and negatives do:
// every wavelength derived from them would be meaningless.
func CheckCarrier(hz float64) error {
	switch {
	case hz <= 0:
		return fmt.Errorf("non-positive carrier %v", hz)
	case !(hz <= math.MaxFloat64):
		return fmt.Errorf("non-finite carrier %v", hz)
	}
	return nil
}

// Validate checks the session is usable: non-empty captures whose every
// packet has a matrix of rows NumSubcarriers long, matching antenna
// counts, and a finite, positive carrier. The row check is what lets the
// series extractors' fast paths index any subcarrier below NumSubcarriers
// without a bounds test; it allocates nothing.
func (s *Session) Validate() error {
	if s.Baseline.Len() == 0 {
		return fmt.Errorf("csi: session has no baseline packets")
	}
	if s.Target.Len() == 0 {
		return fmt.Errorf("csi: session has no target packets")
	}
	if err := s.Baseline.checkRows("baseline"); err != nil {
		return err
	}
	if err := s.Target.checkRows("target"); err != nil {
		return err
	}
	if a, b := s.Baseline.NumAntennas(), s.Target.NumAntennas(); a != b {
		return fmt.Errorf("csi: antenna count mismatch: baseline %d vs target %d", a, b)
	}
	if s.Baseline.NumAntennas() < 2 {
		return fmt.Errorf("csi: need at least 2 antennas for phase difference, got %d", s.Baseline.NumAntennas())
	}
	if CheckCarrier(s.Carrier) != nil {
		return fmt.Errorf("csi: invalid carrier frequency %v", s.Carrier)
	}
	return nil
}

// checkRows reports the first packet of c without a matrix, or the first
// antenna row whose length is not NumSubcarriers.
func (c *Capture) checkRows(side string) error {
	for i := range c.Packets {
		m := c.Packets[i].CSI
		if m == nil {
			return fmt.Errorf("csi: %s packet %d has no CSI matrix", side, i)
		}
		for ant, row := range m.Values {
			if len(row) != NumSubcarriers {
				return fmt.Errorf("csi: %s packet %d antenna %d has %d subcarriers, want %d", side, i, ant, len(row), NumSubcarriers)
			}
		}
	}
	return nil
}
