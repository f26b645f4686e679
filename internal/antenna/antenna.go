// Package antenna models directional reader antennas: gain patterns as a
// function of off-boresight angle and the resulting reading zone. The
// paper's deployments use panel antennas (ImpinJ Threshold IPJ-A0311,
// Alien ALR-8696-C) with beamwidths around 65–100 degrees.
package antenna

import (
	"math"

	"repro/internal/geom"
)

// Pattern is a gain pattern: relative gain in dB (0 at boresight, negative
// off axis) as a function of the off-boresight angle in radians.
type Pattern interface {
	// RolloffDB returns the gain reduction relative to boresight at the
	// given off-axis angle in radians. Always <= 0.
	RolloffDB(angle float64) float64
}

// Isotropic radiates equally in all directions (useful for tests).
type Isotropic struct{}

// RolloffDB implements Pattern.
func (Isotropic) RolloffDB(float64) float64 { return 0 }

// Panel approximates a patch/panel antenna main lobe with the standard
// quadratic (in dB) rolloff: -12 (θ/θ3dB)² dB, floored at the front-to-back
// ratio. This matches manufacturer patterns to within a couple dB across
// the main lobe, which is all the reading-zone model needs.
type Panel struct {
	// Beamwidth3dB is the full half-power beamwidth in radians.
	Beamwidth3dB float64
	// FrontToBackDB is the floor of the rolloff (positive number of dB,
	// e.g. 25 means the back lobe is 25 dB down).
	FrontToBackDB float64
}

// DefaultPanel resembles the ImpinJ Threshold antenna: 70° beamwidth,
// 25 dB front-to-back.
func DefaultPanel() Panel {
	return Panel{Beamwidth3dB: 70 * math.Pi / 180, FrontToBackDB: 25}
}

// RolloffDB implements Pattern. Within the main lobe the rolloff is the
// standard quadratic −3(θ/θ3dB)² dB; beyond the half-power angle an extra
// quartic skirt models the fast drop of a real patch pattern toward its
// sidelobe floor. The skirt matters for reading-zone size: without it a
// panel "sees" tags at 80°+ off-axis.
func (p Panel) RolloffDB(angle float64) float64 {
	if p.Beamwidth3dB <= 0 {
		return 0
	}
	a := math.Abs(angle)
	half := p.Beamwidth3dB / 2
	u := a / half
	r := -3 * u * u
	if u > 1 {
		e := u - 1
		r -= 12 * e * e
	}
	if r < -p.FrontToBackDB {
		r = -p.FrontToBackDB
	}
	return r
}

// Mount fixes an antenna in space: a pattern plus a boresight direction.
// The reading zone and per-tag rolloff derive from the angle between the
// boresight and the antenna→tag ray.
type Mount struct {
	Pattern Pattern
	// Boresight is the pointing direction (normalized internally).
	Boresight geom.Vec3
}

// RolloffTo returns the pattern rolloff toward a tag at tagPos for an
// antenna at antPos.
func (m Mount) RolloffTo(antPos, tagPos geom.Vec3) float64 {
	if m.Pattern == nil {
		return 0
	}
	ray := tagPos.Sub(antPos)
	if ray.Norm() == 0 {
		return 0
	}
	b := m.Boresight.Unit()
	cos := ray.Unit().Dot(b)
	cos = math.Max(-1, math.Min(1, cos))
	return m.Pattern.RolloffDB(math.Acos(cos))
}
