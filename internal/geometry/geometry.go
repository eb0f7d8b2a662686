// Package geometry provides the 2-D planar geometry the channel simulator
// needs: ray/circle intersections giving each antenna's in-target path
// length (the D1, D2 of paper Eqs. 14-17), and uniform linear antenna
// arrays.
//
// The scene is modelled in the horizontal plane through the link: the beaker
// is a circle (its vertical extent exceeds the antenna height, so the
// planar cut captures the geometry that matters).
package geometry

import (
	"fmt"
	"math"
)

// Point is a position in the plane, in metres.
type Point struct {
	X, Y float64
}

// Sub returns p - q as a vector.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by c.
func (p Point) Scale(c float64) Point { return Point{p.X * c, p.Y * c} }

// Dot returns the dot product of p and q as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Circle is a disk in the plane (the beaker cross-section).
type Circle struct {
	Center Point
	Radius float64
}

// ChordLength returns the length of the intersection of segment a→b with
// the circle: the in-target propagation distance of a ray between a
// transmitter at a and a receiver antenna at b. Zero when the segment
// misses the circle.
func (c Circle) ChordLength(a, b Point) float64 {
	d := b.Sub(a)
	segLen := d.Norm()
	if segLen == 0 {
		return 0
	}
	// Parameterise p(t) = a + t·d, t ∈ [0,1]; solve |p(t)-center|² = r².
	f := a.Sub(c.Center)
	A := d.Dot(d)
	B := 2 * f.Dot(d)
	C := f.Dot(f) - c.Radius*c.Radius
	disc := B*B - 4*A*C
	if disc <= 0 {
		return 0
	}
	sq := math.Sqrt(disc)
	t1 := (-B - sq) / (2 * A)
	t2 := (-B + sq) / (2 * A)
	// Clip to the segment.
	if t1 < 0 {
		t1 = 0
	}
	if t2 > 1 {
		t2 = 1
	}
	if t2 <= t1 {
		return 0
	}
	return (t2 - t1) * segLen
}

// Contains reports whether p lies strictly inside the circle.
func (c Circle) Contains(p Point) bool {
	return p.Sub(c.Center).Norm() < c.Radius
}

// LinearArray returns the positions of n antennas spaced `spacing` metres
// apart, centred on `center`, laid out along the direction perpendicular to
// `normal` (unit vector not required; only its direction is used). Returns
// an error for n < 1 or a zero normal.
func LinearArray(center Point, n int, spacing float64, normal Point) ([]Point, error) {
	if n < 1 {
		return nil, fmt.Errorf("geometry: array needs at least one antenna, got %d", n)
	}
	nn := normal.Norm()
	if nn == 0 {
		return nil, fmt.Errorf("geometry: array normal must be nonzero")
	}
	// Perpendicular to the normal: the array broadside faces the link.
	perp := Point{-normal.Y / nn, normal.X / nn}
	out := make([]Point, n)
	for i := range out {
		offset := (float64(i) - float64(n-1)/2) * spacing
		out[i] = center.Add(perp.Scale(offset))
	}
	return out, nil
}
