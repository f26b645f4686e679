package dsp

import "math"

// TwoPi is 2π, the period of RF phase readings.
const TwoPi = 2 * math.Pi

// WrapPhase reduces an angle to the canonical RFID phase range [0, 2π).
func WrapPhase(theta float64) float64 {
	t := math.Mod(theta, TwoPi)
	if t < 0 {
		t += TwoPi
	}
	// math.Mod can return exactly TwoPi after the correction when theta is a
	// tiny negative number; fold it back.
	if t >= TwoPi {
		t -= TwoPi
	}
	return t
}

// Unwrap removes 2π jumps from a wrapped phase sequence, returning a new
// slice. Consecutive samples that differ by more than π are assumed to have
// wrapped. This is the classic 1D phase unwrapping used on dense profiles;
// it is correct only when the true phase changes by less than π between
// samples.
func Unwrap(phases []float64) []float64 {
	out := make([]float64, len(phases))
	if len(phases) == 0 {
		return out
	}
	out[0] = phases[0]
	offset := 0.0
	for i := 1; i < len(phases); i++ {
		d := phases[i] - phases[i-1]
		if d > math.Pi {
			offset -= TwoPi
		} else if d < -math.Pi {
			offset += TwoPi
		}
		out[i] = phases[i] + offset
	}
	return out
}
