package secmem

import "gpusecmem/internal/geometry"

// This file implements offline integrity scrubbing: a full sweep of
// the protected region that verifies every written line against its
// MACs and the integrity tree without returning data. Real secure
// processors run equivalent scrubs after suspend/resume or before
// attestation; the library exposes it so users can bound the staleness
// of "speculative" verification.

// ScrubReport summarizes a VerifyAll sweep.
type ScrubReport struct {
	// LinesChecked counts data lines that were verified.
	LinesChecked uint64
	// LinesSkipped counts lines never written through the engine
	// (they carry no MACs to check).
	LinesSkipped uint64
	// Violations lists every integrity failure found, in address
	// order.
	Violations []*IntegrityError
}

// OK reports whether the sweep found no violations.
func (r *ScrubReport) OK() bool { return len(r.Violations) == 0 }

// VerifyAll scans the whole protected region of a counter-mode engine:
// each touched line's counter is authenticated through the BMT and its
// sector MACs are recomputed from the stored ciphertext. The engine
// state is not modified.
func (e *CounterMode) VerifyAll() *ScrubReport { return e.scrub(e.scrubLine) }

// VerifyAll scans the whole protected region of a direct-encryption
// engine: each touched line's MAC line is authenticated through the MT
// and its sector MACs are recomputed from the stored ciphertext.
func (e *Direct) VerifyAll() *ScrubReport { return e.scrub(e.scrubLine) }

// scrub runs check over every touched line in address order and counts
// the untouched ones as skipped; check appends the line's violations.
func (e *engine) scrub(check func(addr uint64, vs []*IntegrityError) []*IntegrityError) *ScrubReport {
	rep := &ScrubReport{}
	for addr := uint64(0); addr < e.lay.DataBytes; addr += geometry.LineSize {
		if !e.touched[addr/geometry.LineSize] {
			rep.LinesSkipped++
			continue
		}
		rep.LinesChecked++
		rep.Violations = check(addr, rep.Violations)
	}
	return rep
}
