// Package motion provides the trajectory models of the STPP deployment
// scenarios: constant-velocity travel (conveyor belts), manually pushed
// carts with speed jitter, and static mounts. Trajectories map absolute
// time to a 3D position; both the antenna and (in the tag-moving case) the
// tags are described by trajectories, so the reader simulation treats the
// two paper scenarios uniformly.
package motion

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Trajectory maps time (seconds, from scenario start) to a position.
type Trajectory interface {
	// PositionAt returns the position at time t. Implementations clamp t
	// to the trajectory's validity interval.
	PositionAt(t float64) geom.Vec3
	// Duration returns the time span covered by the trajectory.
	Duration() float64
}

// Static is a trajectory that never moves (fixed antennas, shelf tags).
type Static struct {
	P geom.Vec3
}

// PositionAt implements Trajectory.
func (s Static) PositionAt(float64) geom.Vec3 { return s.P }

// Duration implements Trajectory. A static trajectory is valid forever;
// Duration returns +Inf.
func (s Static) Duration() float64 { return math.Inf(1) }

// Linear moves from From to To at constant speed, arriving at Duration.
type Linear struct {
	From, To geom.Vec3
	// Speed in m/s. Must be > 0.
	Speed float64
}

// NewLinear validates and constructs a Linear trajectory.
func NewLinear(from, to geom.Vec3, speed float64) (Linear, error) {
	if speed <= 0 {
		return Linear{}, fmt.Errorf("motion: speed %v must be > 0", speed)
	}
	if from.Dist(to) == 0 {
		return Linear{}, fmt.Errorf("motion: zero-length path")
	}
	return Linear{From: from, To: to, Speed: speed}, nil
}

// Duration implements Trajectory.
func (l Linear) Duration() float64 {
	if l.Speed <= 0 {
		return 0
	}
	return l.From.Dist(l.To) / l.Speed
}

// PositionAt implements Trajectory.
func (l Linear) PositionAt(t float64) geom.Vec3 {
	d := l.Duration()
	if d <= 0 {
		return l.From
	}
	frac := t / d
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return l.From.Lerp(l.To, frac)
}

// ManualPush models a hand-pushed cart: nominal constant speed with an
// Ornstein-Uhlenbeck speed perturbation, integrated into position. This is
// the motion that stretches and compresses phase profiles and that DTW must
// absorb (Section 3.1.1 of the paper).
type ManualPush struct {
	path      Linear
	times     []float64 // sample times
	progress  []float64 // distance travelled at each sample
	totalDist float64
}

// ManualPushParams tunes the speed jitter.
type ManualPushParams struct {
	// JitterFrac is the standard deviation of the speed perturbation as a
	// fraction of nominal speed (e.g. 0.3 for a casual librarian).
	JitterFrac float64
	// CorrTime is the correlation time of the speed perturbation in
	// seconds (how long a slow-down lasts).
	CorrTime float64
	// Seed makes the jitter reproducible.
	Seed int64
}

// DefaultManualPushParams matches a hand-pushed cart reasonably well.
func DefaultManualPushParams(seed int64) ManualPushParams {
	return ManualPushParams{JitterFrac: 0.18, CorrTime: 1.2, Seed: seed}
}

// NewManualPush builds a jittered trajectory along the straight path from
// From to To at the given nominal speed.
func NewManualPush(from, to geom.Vec3, speed float64, p ManualPushParams) (*ManualPush, error) {
	base, err := NewLinear(from, to, speed)
	if err != nil {
		return nil, err
	}
	if p.JitterFrac < 0 || p.JitterFrac >= 1 {
		return nil, fmt.Errorf("motion: JitterFrac %v outside [0,1)", p.JitterFrac)
	}
	if p.CorrTime <= 0 {
		return nil, fmt.Errorf("motion: CorrTime %v must be > 0", p.CorrTime)
	}
	m := &ManualPush{path: base, totalDist: from.Dist(to)}

	// Integrate an OU process on speed: dv = -v/τ dt + σ √(2/τ) dW,
	// discretized at dt. Speed is clamped to stay positive (a librarian
	// does not push the cart backwards).
	const dt = 0.01
	rng := rand.New(rand.NewSource(p.Seed))
	sigma := p.JitterFrac * speed
	perturb := 0.0
	dist := 0.0
	t := 0.0
	m.times = append(m.times, 0)
	m.progress = append(m.progress, 0)
	for dist < m.totalDist {
		decay := math.Exp(-dt / p.CorrTime)
		perturb = perturb*decay + sigma*math.Sqrt(1-decay*decay)*rng.NormFloat64()
		v := speed + perturb
		if minV := 0.15 * speed; v < minV {
			v = minV
		}
		dist += v * dt
		t += dt
		m.times = append(m.times, t)
		m.progress = append(m.progress, math.Min(dist, m.totalDist))
		if t > 100*base.Duration() {
			break // safety net; unreachable with the speed floor
		}
	}
	return m, nil
}

// Duration implements Trajectory.
func (m *ManualPush) Duration() float64 { return m.times[len(m.times)-1] }

// PositionAt implements Trajectory.
func (m *ManualPush) PositionAt(t float64) geom.Vec3 {
	d := interp(m.times, m.progress, t)
	frac := d / m.totalDist
	return m.path.From.Lerp(m.path.To, frac)
}

func interp(xs, ys []float64, x float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[n-1] {
		return ys[n-1]
	}
	// Binary search.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	span := xs[hi] - xs[lo]
	if span == 0 {
		return ys[lo]
	}
	f := (x - xs[lo]) / span
	return ys[lo] + f*(ys[hi]-ys[lo])
}

// Conveyor moves an object along a direction at constant belt speed from a
// starting position, beginning at a launch time (objects enter the belt at
// different times). Before the launch time the object sits at its start
// position.
type Conveyor struct {
	Start geom.Vec3
	// Dir is the belt travel direction (normalized internally).
	Dir geom.Vec3
	// Speed is the belt speed in m/s.
	Speed float64
	// LaunchAt is when the object starts moving.
	LaunchAt float64
	// TravelDist is how far the object rides before leaving the belt
	// (clamped afterwards).
	TravelDist float64
}

// Duration implements Trajectory.
func (c Conveyor) Duration() float64 {
	if c.Speed <= 0 {
		return c.LaunchAt
	}
	return c.LaunchAt + c.TravelDist/c.Speed
}

// PositionAt implements Trajectory.
func (c Conveyor) PositionAt(t float64) geom.Vec3 {
	if t < c.LaunchAt || c.Speed <= 0 {
		return c.Start
	}
	d := (t - c.LaunchAt) * c.Speed
	if c.TravelDist > 0 && d > c.TravelDist {
		d = c.TravelDist
	}
	return c.Start.Add(c.Dir.Unit().Scale(d))
}
