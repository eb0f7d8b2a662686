package geometry

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, 2}
	if got := p.Sub(q); got != (Point{2, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Add(q); got != (Point{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 11 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := p.Dist(q); !mathx.AlmostEqual(got, math.Sqrt(8), 1e-12) {
		t.Errorf("Dist = %v", got)
	}
}

func TestChordThroughCenterIsDiameter(t *testing.T) {
	c := Circle{Center: Point{1, 0}, Radius: 0.0715}
	// Segment along the x-axis straight through the center.
	got := c.ChordLength(Point{0, 0}, Point{2, 0})
	if !mathx.AlmostEqual(got, 0.143, 1e-9) {
		t.Errorf("chord through center = %v, want diameter 0.143", got)
	}
}

func TestChordOffCenter(t *testing.T) {
	c := Circle{Center: Point{1, 0}, Radius: 0.0715}
	// A horizontal ray at lateral offset d cuts a chord 2·sqrt(r²−d²).
	d := 0.03
	got := c.ChordLength(Point{0, d}, Point{2, d})
	want := 2 * math.Sqrt(0.0715*0.0715-d*d)
	if !mathx.AlmostEqual(got, want, 1e-9) {
		t.Errorf("offset chord = %v, want %v", got, want)
	}
}

func TestChordMiss(t *testing.T) {
	c := Circle{Center: Point{1, 0}, Radius: 0.05}
	if got := c.ChordLength(Point{0, 0.2}, Point{2, 0.2}); got != 0 {
		t.Errorf("missing ray chord = %v, want 0", got)
	}
	// Tangent ray: zero-length chord.
	if got := c.ChordLength(Point{0, 0.05}, Point{2, 0.05}); got > 1e-6 {
		t.Errorf("tangent chord = %v, want ≈0", got)
	}
}

func TestChordSegmentClipping(t *testing.T) {
	c := Circle{Center: Point{0, 0}, Radius: 1}
	// Segment ending inside the circle: chord runs from entry to endpoint.
	got := c.ChordLength(Point{-2, 0}, Point{0, 0})
	if !mathx.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("clipped chord = %v, want 1", got)
	}
	// Segment fully inside.
	got = c.ChordLength(Point{-0.3, 0}, Point{0.4, 0})
	if !mathx.AlmostEqual(got, 0.7, 1e-12) {
		t.Errorf("inside chord = %v, want 0.7", got)
	}
}

func TestChordDegenerateSegment(t *testing.T) {
	c := Circle{Center: Point{0, 0}, Radius: 1}
	if got := c.ChordLength(Point{0, 0}, Point{0, 0}); got != 0 {
		t.Errorf("zero segment chord = %v, want 0", got)
	}
}

// Property: the chord never exceeds the diameter nor the segment length.
func TestChordBoundsProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, rRaw float64) bool {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, rRaw} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		mod := func(v float64) float64 { return math.Mod(v, 10) }
		a := Point{mod(ax), mod(ay)}
		b := Point{mod(bx), mod(by)}
		c := Circle{Center: Point{mod(cx), mod(cy)}, Radius: math.Abs(mod(rRaw)) + 0.01}
		chord := c.ChordLength(a, b)
		if chord < 0 {
			return false
		}
		return chord <= 2*c.Radius+1e-9 && chord <= a.Dist(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	c := Circle{Center: Point{0, 0}, Radius: 1}
	if !c.Contains(Point{0.5, 0}) {
		t.Error("interior point not contained")
	}
	if c.Contains(Point{2, 0}) {
		t.Error("exterior point contained")
	}
	if c.Contains(Point{1, 0}) {
		t.Error("boundary point should not be strictly contained")
	}
}

func TestLinearArray(t *testing.T) {
	// 3 antennas spaced λ/2 ≈ 2.8 cm, facing along -x (normal toward Tx).
	ants, err := LinearArray(Point{2, 0}, 3, 0.028, Point{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ants) != 3 {
		t.Fatalf("len = %d", len(ants))
	}
	// Centred on the array center.
	if !mathx.AlmostEqual(ants[1].X, 2, 1e-12) || !mathx.AlmostEqual(ants[1].Y, 0, 1e-12) {
		t.Errorf("middle antenna = %v, want (2,0)", ants[1])
	}
	// Spacing between adjacent elements.
	if d := ants[0].Dist(ants[1]); !mathx.AlmostEqual(d, 0.028, 1e-12) {
		t.Errorf("spacing = %v", d)
	}
	// Array is perpendicular to the normal: all at x = 2.
	for _, a := range ants {
		if !mathx.AlmostEqual(a.X, 2, 1e-12) {
			t.Errorf("antenna %v not on broadside line", a)
		}
	}
}

func TestLinearArraySingle(t *testing.T) {
	ants, err := LinearArray(Point{1, 1}, 1, 0.05, Point{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ants[0] != (Point{1, 1}) {
		t.Errorf("single antenna = %v, want center", ants[0])
	}
}

func TestLinearArrayErrors(t *testing.T) {
	if _, err := LinearArray(Point{}, 0, 0.05, Point{1, 0}); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := LinearArray(Point{}, 2, 0.05, Point{0, 0}); err == nil {
		t.Error("zero normal should error")
	}
}

func TestAntennaChordsDiffer(t *testing.T) {
	// The physical core of the paper's feature: different receive antennas
	// see different in-target path lengths D1 ≠ D2 for an off-axis target.
	c := Circle{Center: Point{1.0, 0.01}, Radius: 0.0715}
	tx := Point{0, 0}
	ants, err := LinearArray(Point{2, 0}, 3, 0.028, Point{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	d1 := c.ChordLength(tx, ants[0])
	d2 := c.ChordLength(tx, ants[1])
	d3 := c.ChordLength(tx, ants[2])
	if d1 == 0 || d2 == 0 || d3 == 0 {
		t.Fatalf("all rays should pierce the beaker: %v %v %v", d1, d2, d3)
	}
	if math.Abs(d1-d2) < 1e-6 && math.Abs(d2-d3) < 1e-6 {
		t.Errorf("chords do not differ across antennas: %v %v %v", d1, d2, d3)
	}
}
