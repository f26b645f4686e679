// Package phys models the physical layer of a UHF RFID system: carrier
// channels, the backscatter phase equation (Eq. 1 of the STPP paper),
// link-budget RSSI, image-method multipath, fading and measurement noise.
//
// This package is the substitution for the paper's ImpinJ R420 reader and
// physical environment (see DESIGN.md §2): it produces the same observables
// — per-read phase in [0, 2π) and RSSI in dBm — from first principles.
package phys

import (
	"fmt"
	"math"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299792458.0

// Band describes a regulatory RFID band divided into channels, matching the
// paper's 920–926 MHz ISM deployment.
type Band struct {
	// BaseHz is the center frequency of channel 0.
	BaseHz float64
	// SpacingHz is the channel spacing.
	SpacingHz float64
	// Channels is the number of channels in the band.
	Channels int
}

// ChinaBand is the 920.625–924.375 MHz band used by the paper's deployment
// (16 channels at 250 kHz spacing starting at 920.625 MHz).
var ChinaBand = Band{BaseHz: 920.625e6, SpacingHz: 250e3, Channels: 16}

// Freq returns the center frequency of channel n. Channels outside the band
// wrap around, mirroring reader firmware behaviour for hop sequences.
func (b Band) Freq(n int) float64 {
	if b.Channels <= 0 {
		return b.BaseHz
	}
	n %= b.Channels
	if n < 0 {
		n += b.Channels
	}
	return b.BaseHz + float64(n)*b.SpacingHz
}

// Wavelength returns the carrier wavelength of channel n in meters.
func (b Band) Wavelength(n int) float64 {
	return SpeedOfLight / b.Freq(n)
}

// Validate reports configuration errors.
func (b Band) Validate() error {
	if b.BaseHz <= 0 {
		return fmt.Errorf("phys: band base frequency %v <= 0", b.BaseHz)
	}
	if b.Channels <= 0 {
		return fmt.Errorf("phys: band has %d channels", b.Channels)
	}
	if b.SpacingHz < 0 {
		return fmt.Errorf("phys: negative channel spacing %v", b.SpacingHz)
	}
	return nil
}

// HopSequence produces a deterministic pseudo-random channel hop sequence of
// length n over the band, as FCC/ETSI readers do. The sequence visits
// channels in a fixed permutation cycle derived from the seed.
func (b Band) HopSequence(seed int64, n int) []int {
	out := make([]int, n)
	if b.Channels <= 0 {
		return out
	}
	// Simple multiplicative congruential walk over channel indices; the
	// exact sequence does not matter, only that it is deterministic and
	// covers the band.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		out[i] = int((state >> 33) % uint64(b.Channels))
	}
	return out
}

// PhaseConstant returns 4π/λ — the rad-per-meter slope of backscatter phase
// with respect to reader-tag distance (round trip doubles the path).
func PhaseConstant(wavelength float64) float64 {
	return 4 * math.Pi / wavelength
}
