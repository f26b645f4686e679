package stpp

import (
	"repro/internal/ckpt"
	"repro/internal/profile"
)

// AppendCheckpoint serializes the state as four counters: the profile
// samples the segment cache covers, the aligner's column count and tail
// base (dtw.SegmentAligner.TailBase), and the samples the unwrap/median
// curves cover. What they count — the segments, the DTW columns, the
// curves — is a deterministic function of the tag's profile, which the
// engine checkpoint carries anyway, so RestoreCheckpoint recomputes it
// instead of journaling it. The pure scratch buffers (valley window,
// X-key temporaries and memo) are not state and are not encoded.
func (s *DetectState) AppendCheckpoint(dst []byte) []byte {
	dst = ckpt.AppendU64(dst, uint64(s.segs.Covered()))
	dst = ckpt.AppendU64(dst, uint64(s.al.Cols()))
	dst = ckpt.AppendU64(dst, uint64(s.al.TailBase()))
	return ckpt.AppendU64(dst, uint64(s.uLen))
}

// RestoreCheckpoint loads AppendCheckpoint output into a state created by
// the same detector configuration, rebuilding it over p — the restored
// profile of the tag that wrote it — with the live code: the segment
// cache re-segments the first n samples, the aligner resumes over those
// segments (its columns are computed by the next Align), and unwrapMedian
// recomputes the curves over the first uLen samples. Counters the profile
// or its segmentation cannot back fail the reader. On error the state is
// left Reset (valid but cold).
func (s *DetectState) RestoreCheckpoint(r *ckpt.Reader, p *profile.Profile) error {
	n, cols, base, uLen := r.U64(), r.U64(), r.U64(), r.U64()
	if samples := uint64(p.Len()); r.Err() == nil && (n > samples || uLen > samples) {
		r.Failf("detection state covers %d/%d samples of a %d-sample profile", n, uLen, samples)
	}
	if err := r.Err(); err != nil {
		s.Reset()
		return err
	}
	segs := s.segs.Restore(p, int(n))
	if cols > uint64(len(segs)) || base > cols {
		s.Reset()
		r.Failf("aligner state %d columns from %d over %d segments", cols, base, len(segs))
		return r.Err()
	}
	if err := s.al.RestoreState(segs[:cols], int(base)); err != nil {
		s.Reset()
		return err
	}
	s.uLen = 0
	if uLen > 0 {
		s.unwrapMedian(p.Slice(0, int(uLen)))
	}
	return nil
}
