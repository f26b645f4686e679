// Package geom provides small 2D/3D vector and trajectory primitives used
// by the RF simulator and the STPP localization pipeline.
//
// The coordinate convention throughout the repository follows Figure 1 of
// the paper: tags lie in the Z=0 plane, X is the reader's travel axis, Y is
// the depth axis (distance from the travel line within the tag plane), and
// Z is height above the tag plane.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or vector in 3D space. Units are meters.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Unit returns v normalized to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Lerp linearly interpolates between v and w; t=0 yields v, t=1 yields w.
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		X: v.X + (w.X-v.X)*t,
		Y: v.Y + (w.Y-v.Y)*t,
		Z: v.Z + (w.Z-v.Z)*t,
	}
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// Vec2 is a point or vector in the tag plane. Units are meters.
type Vec2 struct {
	X, Y float64
}

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// In3D lifts the planar point into 3D at height z.
func (v Vec2) In3D(z float64) Vec3 { return Vec3{X: v.X, Y: v.Y, Z: z} }

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Vec3
}

// At returns the point at parameter t in [0,1] along the segment.
func (s Segment) At(t float64) Vec3 { return s.A.Lerp(s.B, t) }

// ClosestParam returns the parameter t in [0,1] of the point on the segment
// closest to p.
func (s Segment) ClosestParam(p Vec3) float64 {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	return clamp(t, 0, 1)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Plane is an infinite plane given by a point and a unit normal, used by the
// image-method multipath model to mirror the reader position across
// reflecting surfaces (floor, shelf back panel, metal cart, ...).
type Plane struct {
	Point  Vec3
	Normal Vec3
}

// Mirror returns p reflected across the plane.
func (pl Plane) Mirror(p Vec3) Vec3 {
	n := pl.Normal.Unit()
	d := p.Sub(pl.Point).Dot(n)
	return p.Sub(n.Scale(2 * d))
}

// SignedDist returns the signed distance of p from the plane along the
// normal direction.
func (pl Plane) SignedDist(p Vec3) float64 {
	return p.Sub(pl.Point).Dot(pl.Normal.Unit())
}
