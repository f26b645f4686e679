// Package profile defines phase profiles — the per-tag time series of RF
// phase readings at the heart of STPP — plus reference-profile synthesis
// and the coarse segmentation of Section 3.1.2.
package profile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dtw"
	"repro/internal/epcgen2"
	"repro/internal/reader"
)

// Profile is one tag's phase profile: reading timestamps and wrapped phase
// values, optionally with RSSI.
type Profile struct {
	// EPC identifies the tag (zero for synthetic references).
	EPC epcgen2.EPC
	// Times are the read timestamps in seconds, strictly increasing.
	Times []float64
	// Phases are the wrapped phase readings in [0, 2π), parallel to Times.
	Phases []float64
	// RSSI holds the per-read RSSI in dBm; may be nil for synthetic
	// profiles.
	RSSI []float64
}

// Len returns the number of samples.
func (p *Profile) Len() int { return len(p.Times) }

// Duration returns the time span covered by the profile, 0 if fewer than
// two samples.
func (p *Profile) Duration() float64 {
	if p.Len() < 2 {
		return 0
	}
	return p.Times[p.Len()-1] - p.Times[0]
}

// Slice returns the sub-profile of samples [i, j). The underlying arrays
// are shared.
func (p *Profile) Slice(i, j int) *Profile {
	out := &Profile{EPC: p.EPC, Times: p.Times[i:j], Phases: p.Phases[i:j]}
	if p.RSSI != nil {
		out.RSSI = p.RSSI[i:j]
	}
	return out
}

// Validate reports structural problems.
func (p *Profile) Validate() error {
	if len(p.Times) != len(p.Phases) {
		return fmt.Errorf("profile: %d times vs %d phases", len(p.Times), len(p.Phases))
	}
	if p.RSSI != nil && len(p.RSSI) != len(p.Times) {
		return fmt.Errorf("profile: %d times vs %d rssi", len(p.Times), len(p.RSSI))
	}
	for i := 1; i < len(p.Times); i++ {
		if p.Times[i] < p.Times[i-1] {
			return fmt.Errorf("profile: times not sorted at %d", i)
		}
	}
	for i, ph := range p.Phases {
		if ph < 0 || ph >= 2*math.Pi || math.IsNaN(ph) {
			return fmt.Errorf("profile: phase[%d] = %v out of [0,2π)", i, ph)
		}
	}
	return nil
}

// FromReads groups a read log by EPC into per-tag profiles, ordered by each
// tag's first appearance. Reads are assumed time-ordered (as produced by
// the reader simulator); if not, each profile is sorted. It is a batch
// wrapper over Builder.
func FromReads(reads []reader.TagRead) []*Profile {
	b := NewBuilder()
	b.AddBatch(reads)
	return b.Profiles()
}

func sortProfile(p *Profile) {
	idx := make([]int, p.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.Times[idx[a]] < p.Times[idx[b]] })
	times := make([]float64, len(idx))
	phases := make([]float64, len(idx))
	var rssi []float64
	if p.RSSI != nil {
		rssi = make([]float64, len(idx))
	}
	for i, j := range idx {
		times[i] = p.Times[j]
		phases[i] = p.Phases[j]
		if rssi != nil {
			rssi[i] = p.RSSI[j]
		}
	}
	p.Times, p.Phases, p.RSSI = times, phases, rssi
}

// Segmentize produces the paper's coarse representation: the profile is cut
// into chunks of w samples; any chunk containing a 0↔2π wrap is split at
// the wrap so that no segment spans a phase jump. Each segment records its
// [min,max] phase range, its sample index range, and its time interval.
func (p *Profile) Segmentize(w int) []dtw.Segment {
	if w < 1 {
		w = 1
	}
	return p.appendSegments(nil, 0, w)
}

// appendSegments runs the segmentation scan from sample `start` to the end
// of the profile, appending to dst. Segment boundaries are a pure forward
// function of the starting index and the samples at or after it, which is
// what makes the scan resumable (see SegmentCache).
func (p *Profile) appendSegments(dst []dtw.Segment, start, w int) []dtw.Segment {
	n := p.Len()
	for start < n {
		end := start + w
		if end > n {
			end = n
		}
		// Split at wraps: scan for |Δphase| > π between consecutive samples.
		cut := end
		for i := start + 1; i < end; i++ {
			if math.Abs(p.Phases[i]-p.Phases[i-1]) > math.Pi {
				cut = i
				break
			}
		}
		dst = append(dst, p.segment(start, cut))
		start = cut
	}
	return dst
}

// segment builds one dtw.Segment over samples [i, j).
func (p *Profile) segment(i, j int) dtw.Segment {
	lo, hi := p.Phases[i], p.Phases[i]
	for k := i + 1; k < j; k++ {
		if p.Phases[k] < lo {
			lo = p.Phases[k]
		}
		if p.Phases[k] > hi {
			hi = p.Phases[k]
		}
	}
	interval := 0.0
	if j-1 > i {
		interval = p.Times[j-1] - p.Times[i]
	}
	return dtw.Segment{Lo: lo, Hi: hi, Start: i, End: j, Interval: interval}
}
